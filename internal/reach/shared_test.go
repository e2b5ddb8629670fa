package reach

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/cfg"
	"repro/internal/emu"
	"repro/internal/sched"
	"repro/internal/workload"
)

// schedOf returns a w-worker scheduler closed when the test ends; a
// 1-worker scheduler is the serial reference.
func schedOf(tb testing.TB, w int) *sched.Scheduler {
	s := sched.New(w)
	tb.Cleanup(s.Close)
	return s
}

// maxAbsDiff returns the largest |a-b| over two equally-shaped matrices.
func maxAbsDiff(a, b []float64) float64 {
	max := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > max {
			max = d
		}
	}
	return max
}

// TestSharedMatchesDirectProperty is the engine's parity acceptance
// test: on randomised CFGs the shared-factorisation path must agree
// with the per-source-factorisation reference within 1e-9 on both the
// probability and distance matrices.
func TestSharedMatchesDirectProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) < 4 {
			return true
		}
		g := randomFlowGraph(raw)
		direct, derr := ComputeDirect(g)
		shared, serr := Compute(g)
		if derr != nil || serr != nil {
			// Degenerate random chains may be singular; both paths must
			// agree that they are.
			return (derr == nil) == (serr == nil)
		}
		if d := maxAbsDiff(direct.Prob.Data, shared.Prob.Data); d > 1e-9 {
			t.Logf("Prob diverges by %g", d)
			return false
		}
		if d := maxAbsDiff(direct.Dist.Data, shared.Dist.Data); d > 1e-9 {
			t.Logf("Dist diverges by %g", d)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Error(err)
	}
}

// TestSharedMatchesDirectRegressions replays fuzz inputs that once
// broke parity. The first one builds a chain whose only return path to
// one node runs through an absorbing self-loop: the return probability
// is pure round-off, and both engines used to divide noise by noise
// (diverging by ~17 instructions) instead of reporting the pair
// unreachable.
func TestSharedMatchesDirectRegressions(t *testing.T) {
	inputs := [][]uint16{
		{0xcf0b, 0xfaba, 0x3e91, 0x8b76, 0x2558, 0x9980, 0xae4a, 0xfe86,
			0x325c, 0x5cc3, 0x4b2f, 0x3569, 0x5bdb, 0x4664, 0x29f4, 0xb50d, 0xc7d3},
	}
	for ii, raw := range inputs {
		g := randomFlowGraph(raw)
		direct, derr := ComputeDirect(g)
		shared, serr := Compute(g)
		if (derr == nil) != (serr == nil) {
			t.Fatalf("input %d: error mismatch: %v vs %v", ii, derr, serr)
		}
		if derr != nil {
			continue
		}
		if d := maxAbsDiff(direct.Prob.Data, shared.Prob.Data); d > 1e-9 {
			t.Errorf("input %d: Prob diverges by %g", ii, d)
		}
		if d := maxAbsDiff(direct.Dist.Data, shared.Dist.Data); d > 1e-9 {
			t.Errorf("input %d: Dist diverges by %g", ii, d)
		}
	}
}

// TestSharedMatchesDirectOnBenchmark checks parity on a real pruned
// benchmark CFG. Real chains can be orders of magnitude worse
// conditioned than the randomised ones (hot loops leak very little), so
// the tolerance here allows conditioning headroom.
func TestSharedMatchesDirectOnBenchmark(t *testing.T) {
	for _, name := range []string{"compress", "m88ksim"} {
		g := benchGraph(t, name)
		direct, err := ComputeDirect(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		shared, err := Compute(g)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := maxAbsDiff(direct.Prob.Data, shared.Prob.Data); d > 1e-6 {
			t.Errorf("%s: Prob diverges by %g", name, d)
		}
		// Distances are in instructions; agree to far better than one
		// instruction.
		if d := maxAbsDiff(direct.Dist.Data, shared.Dist.Data); d > 1e-3 {
			t.Errorf("%s: Dist diverges by %g", name, d)
		}
	}
}

func benchGraph(t *testing.T, name string) *cfg.Graph {
	t.Helper()
	prog := workload.MustGenerate(name, workload.SizeTest)
	runRes, err := emu.Run(prog, emu.Config{})
	if err != nil {
		t.Fatal(err)
	}
	g, err := cfg.Build(runRes.Profile).Prune(0.9, 256)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func matrixBytes(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := binary.Write(&buf, binary.LittleEndian, res.Prob.Data); err != nil {
		t.Fatal(err)
	}
	if err := binary.Write(&buf, binary.LittleEndian, res.Dist.Data); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestParallelMatchesSerialByteIdentical: the per-source fan-out writes
// disjoint result rows from a shared read-only factorisation, so every
// scheduler size must produce bit-for-bit identical output. Run with
// -race this also exercises the fan-out for data races.
func TestParallelMatchesSerialByteIdentical(t *testing.T) {
	graphs := []*cfg.Graph{
		benchGraph(t, "compress"),
		twoNodeLoop(0.8),
		threeNode(0.25),
	}
	for _, seed := range []uint64{3, 99} {
		g, _ := randomChainAndWalk(seed, 12, 30000)
		graphs = append(graphs, g)
	}
	serialSched := schedOf(t, 1)
	var pars []*sched.Scheduler
	for _, workers := range []int{2, 3, 8, 64} {
		pars = append(pars, schedOf(t, workers))
	}
	for gi, g := range graphs {
		serial, err := ComputeOpts(g, Options{Sched: serialSched})
		if err != nil {
			t.Fatalf("graph %d serial: %v", gi, err)
		}
		want := matrixBytes(t, serial)
		for _, ps := range pars {
			workers := ps.Workers()
			par, err := ComputeOpts(g, Options{Sched: ps})
			if err != nil {
				t.Fatalf("graph %d workers=%d: %v", gi, workers, err)
			}
			if !bytes.Equal(want, matrixBytes(t, par)) {
				t.Errorf("graph %d: workers=%d output differs from serial", gi, workers)
			}
		}
	}
}

// TestParallelRepeatedRuns hammers the concurrent fan-out (and the
// workspace pool) under -race.
func TestParallelRepeatedRuns(t *testing.T) {
	g, _ := randomChainAndWalk(7, 10, 20000)
	want, err := ComputeOpts(g, Options{Sched: schedOf(t, 1)})
	if err != nil {
		t.Fatal(err)
	}
	par := schedOf(t, 4)
	done := make(chan error, 8)
	for k := 0; k < 8; k++ {
		go func() {
			for r := 0; r < 5; r++ {
				res, err := ComputeOpts(g, Options{Sched: par})
				if err != nil {
					done <- err
					return
				}
				if maxAbsDiff(res.Prob.Data, want.Prob.Data) != 0 {
					done <- errNondeterministic
					return
				}
			}
			done <- nil
		}()
	}
	for k := 0; k < 8; k++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

var errNondeterministic = errorString("parallel run diverged from serial")

type errorString string

func (e errorString) Error() string { return string(e) }
