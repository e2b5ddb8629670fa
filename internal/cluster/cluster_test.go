package cluster

import (
	"runtime"
	"testing"

	"repro/internal/cfg"
	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/heuristic"
	"repro/internal/isa"
	"repro/internal/reach"
	"repro/internal/trace"
	"repro/internal/workload"
)

// pipeline runs the full analysis pipeline for a program and returns
// the trace and the profile-based spawn table.
func pipeline(t *testing.T, p *isa.Program, sel core.Config) (*trace.Trace, *core.Table, *emu.Profile) {
	t.Helper()
	res, err := emu.Run(p, emu.Config{CollectTrace: true})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(res.Profile).Prune(0.9, 256)
	if err != nil {
		t.Fatal(err)
	}
	r, err := reach.Compute(g)
	if err != nil {
		t.Fatal(err)
	}
	tab, err := core.Select(res.Profile, g, r, res.Trace, sel)
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace, tab, res.Profile
}

func TestSingleTUBaselineSanity(t *testing.T) {
	tr, _, _ := pipeline(t, workload.KernelIndependentMap(64, 8), core.Config{})
	res, err := Simulate(tr, Config{TUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Committed != int64(tr.Len()) {
		t.Errorf("committed %d != trace %d", res.Committed, tr.Len())
	}
	if res.IPC <= 0.5 || res.IPC > 4 {
		t.Errorf("suspicious baseline IPC %v", res.IPC)
	}
	if res.Spawns != 0 || res.ThreadsCommitted != 0 {
		t.Error("baseline must not spawn")
	}
	if res.AvgActiveThreads > 1.0001 {
		t.Errorf("baseline active threads %v > 1", res.AvgActiveThreads)
	}
}

func TestSpeculationBeatsBaseline(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.KernelIndependentMap(128, 16), core.Config{})
	base, err := Simulate(tr, Config{TUs: 1})
	if err != nil {
		t.Fatal(err)
	}
	spec, err := Simulate(tr, Config{TUs: 16, Pairs: tab})
	if err != nil {
		t.Fatal(err)
	}
	if spec.Cycles >= base.Cycles {
		t.Errorf("16-TU run (%d cycles) not faster than baseline (%d)", spec.Cycles, base.Cycles)
	}
	if spec.Spawns == 0 {
		t.Error("no threads spawned on an ideal map loop")
	}
	if spec.AvgActiveThreads < 2 {
		t.Errorf("average active threads %v too low", spec.AvgActiveThreads)
	}
}

// TestResultDoesNotPinSimulator: a Result outlives its simulation in
// the engine's cache, which charges it ApproxBytes (hundreds of
// bytes), so it must not keep the simulator's per-TU state (~15MB at
// 16 TUs) reachable.
func TestResultDoesNotPinSimulator(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.KernelIndependentMap(128, 16), core.Config{})
	cfg := Config{TUs: 16, Pairs: tab}
	if _, err := Simulate(tr, cfg); err != nil { // warm any per-trace state
		t.Fatal(err)
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	before := int64(ms.HeapAlloc)
	held := make([]*Result, 8)
	for i := range held {
		res, err := Simulate(tr, cfg)
		if err != nil {
			t.Fatal(err)
		}
		held[i] = res
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	per := (int64(ms.HeapAlloc) - before) / int64(len(held))
	if limit := int64(256 << 10); per > limit {
		t.Fatalf("each held Result retains %d bytes (limit %d): the simulator is still reachable", per, limit)
	}
	runtime.KeepAlive(held)
}

func TestMoreTUsNeverMuchWorse(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("m88ksim", workload.SizeTest), core.Config{})
	var prev int64
	for i, tus := range []int{2, 4, 8, 16} {
		res, err := Simulate(tr, Config{TUs: tus, Pairs: tab})
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 && float64(res.Cycles) > 1.1*float64(prev) {
			t.Errorf("TUs=%d cycles %d much worse than fewer TUs %d", tus, res.Cycles, prev)
		}
		prev = res.Cycles
	}
}

// TestCommittedAlwaysTraceLength: whatever the policy mix, the committed
// instruction count must equal the trace length (architectural
// correctness of the speculation machinery).
func TestCommittedAlwaysTraceLength(t *testing.T) {
	tr, tab, pr := pipeline(t, workload.MustGenerate("compress", workload.SizeTest), core.Config{})
	htab := heuristic.Pairs(pr.Program, pr, tr, heuristic.Combined, heuristic.Config{})
	configs := []Config{
		{TUs: 1},
		{TUs: 4, Pairs: tab},
		{TUs: 16, Pairs: tab},
		{TUs: 16, Pairs: tab, Predictor: Stride},
		{TUs: 16, Pairs: tab, Predictor: Context, SpawnOverhead: 8},
		{TUs: 16, Pairs: tab, RemovalCycles: 50},
		{TUs: 16, Pairs: tab, RemovalCycles: 50, RemovalOccurrences: 8},
		{TUs: 16, Pairs: tab, Reassign: true},
		{TUs: 16, Pairs: tab, MinThreadSize: 32},
		{TUs: 16, Pairs: htab},
		{TUs: 16, Pairs: htab, Predictor: Stride, SpawnOverhead: 8},
		{TUs: 16, Pairs: tab, SpawnWindowFactor: 4},
	}
	for i, cfgSim := range configs {
		res, err := Simulate(tr, cfgSim)
		if err != nil {
			t.Fatalf("config %d: %v", i, err)
		}
		if res.Committed != int64(tr.Len()) {
			t.Errorf("config %d: committed %d != %d", i, res.Committed, tr.Len())
		}
		if res.Fetched < res.Committed {
			t.Errorf("config %d: fetched %d < committed %d", i, res.Fetched, res.Committed)
		}
		if res.Cycles <= 0 {
			t.Errorf("config %d: cycles %d", i, res.Cycles)
		}
	}
}

func TestPerfectPredictionNoValidationSquash(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("ijpeg", workload.SizeTest), core.Config{})
	res, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Perfect})
	if err != nil {
		t.Fatal(err)
	}
	if res.MispredictStalls != 0 {
		t.Errorf("perfect prediction produced %d validation squashes", res.MispredictStalls)
	}
	if res.VPLookups != 0 {
		t.Errorf("perfect prediction counted %d lookups", res.VPLookups)
	}
}

func TestStridePredictorMeasuresAccuracy(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("ijpeg", workload.SizeTest), core.Config{})
	res, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Stride})
	if err != nil {
		t.Fatal(err)
	}
	if res.VPLookups == 0 {
		t.Fatal("no live-in predictions made")
	}
	acc := res.VPAccuracy()
	if acc < 0.3 || acc > 1.0 {
		t.Errorf("stride accuracy %v implausible", acc)
	}
	// Realistic prediction must cost performance vs perfect.
	perfect, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Perfect})
	if err != nil {
		t.Fatal(err)
	}
	if res.Cycles < perfect.Cycles {
		t.Errorf("stride (%d cycles) beat perfect (%d)", res.Cycles, perfect.Cycles)
	}
}

func TestSpawnOverheadCostsCycles(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("m88ksim", workload.SizeTest), core.Config{})
	noOv, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Stride})
	if err != nil {
		t.Fatal(err)
	}
	ov, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Stride, SpawnOverhead: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Overhead shifts spawn timing, which perturbs squash patterns, so
	// small inversions are possible — but it must not make the run
	// substantially faster.
	if float64(ov.Cycles) < 0.93*float64(noOv.Cycles) {
		t.Errorf("8-cycle overhead made the run much faster (%d vs %d)", ov.Cycles, noOv.Cycles)
	}
}

func TestMinThreadSizeRemovesPairs(t *testing.T) {
	// Heuristic tables include short-callee pairs whose threads are
	// tiny; min-size enforcement must remove some.
	p := workload.MustGenerate("li", workload.SizeTest)
	tr, _, pr := pipeline(t, p, core.Config{})
	htab := heuristic.Pairs(p, pr, tr, heuristic.Combined, heuristic.Config{})
	res, err := Simulate(tr, Config{TUs: 16, Pairs: htab, MinThreadSize: 32})
	if err != nil {
		t.Fatal(err)
	}
	if res.PairsRemovedMinSize == 0 {
		t.Error("min-size policy removed nothing on a heuristic table")
	}
}

func TestReassignUsesAlternates(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("perl", workload.SizeTest), core.Config{})
	if len(tab.Alternates) == 0 {
		t.Skip("no alternates in table")
	}
	a, err := Simulate(tr, Config{TUs: 16, Pairs: tab})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Reassign: true})
	if err != nil {
		t.Fatal(err)
	}
	// Reassign changes spawn behaviour (paper: slightly worse on
	// average); just require it to run and differ.
	if a.Spawns == b.Spawns && a.Cycles == b.Cycles {
		t.Log("reassign produced identical run (acceptable but unexpected)")
	}
}

func TestMemoryViolationsDetected(t *testing.T) {
	// compress has the highest shared-write density: cross-thread
	// violations must occur and be recovered from.
	tr, tab, _ := pipeline(t, workload.MustGenerate("compress", workload.SizeTest), core.Config{})
	res, err := Simulate(tr, Config{TUs: 16, Pairs: tab})
	if err != nil {
		t.Fatal(err)
	}
	if res.MemViolationSquashes == 0 && res.SVCForwards == 0 {
		t.Error("no cross-thread memory activity at all on compress")
	}
}

func TestDeterminism(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("go", workload.SizeTest), core.Config{})
	a, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Stride})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Simulate(tr, Config{TUs: 16, Pairs: tab, Predictor: Stride})
	if err != nil {
		t.Fatal(err)
	}
	if a.Cycles != b.Cycles || a.Spawns != b.Spawns || a.VPHits != b.VPHits {
		t.Errorf("simulation not deterministic: %+v vs %+v", a, b)
	}
}

func TestEmptyTraceRejected(t *testing.T) {
	if _, err := Simulate(&trace.Trace{Program: &isa.Program{}}, Config{TUs: 1}); err == nil {
		t.Error("expected error for empty trace")
	}
}

func TestPairStatsCollected(t *testing.T) {
	tr, tab, _ := pipeline(t, workload.MustGenerate("ijpeg", workload.SizeTest), core.Config{})
	res, err := Simulate(tr, Config{TUs: 16, Pairs: tab, CollectPairStats: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PairStats) == 0 {
		t.Fatal("no pair stats collected")
	}
	var spawns int64
	for _, st := range res.PairStats {
		spawns += st.Spawns
	}
	if spawns != res.Spawns {
		t.Errorf("per-pair spawns %d != total %d", spawns, res.Spawns)
	}
}

func TestPredictorKindString(t *testing.T) {
	for k := Perfect; k <= LastValue; k++ {
		if k.String() == "" {
			t.Errorf("kind %d has empty name", k)
		}
	}
	if PredictorKind(42).String() == "" {
		t.Error("unknown kind must print")
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.withDefaults()
	if c.TUs != 16 || c.FetchWidth != 4 || c.ROB != 64 || c.ForwardLat != 3 {
		t.Errorf("defaults wrong: %+v", c)
	}
	if c.PredictorBytes != 16<<10 || c.RemovalOccurrences != 1 {
		t.Errorf("defaults wrong: %+v", c)
	}
}
