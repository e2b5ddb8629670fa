package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/sched"
	"repro/internal/workload"
)

// figuresDigest is the SHA-256 of `spmt-experiments -size test -csv`:
// every figure's CSV in paper order, each followed by a blank line. It
// is the same for every scheduler budget and every seed.
const figuresDigest = "0e4dc97b31e4fb79a66d8234dabc99a4a6ba97b87995b84c65dc6b66b27e53c9"

// sweepResult is what one sweep measured, as the sweep process
// reports it to the benchmark.
type sweepResult struct {
	// SetupsNS holds the pipeline builds' times: the sweep's own and
	// the extra ones before it.
	SetupsNS []int64          `json:"setups_ns"`
	WallNS   int64            `json:"wall_ns"`
	FigureNS map[string]int64 `json:"figure_ns"`
	Digest   string           `json:"digest"`
	// Kinds holds calls and busy milliseconds per engine job kind.
	Kinds     map[string][2]float64 `json:"kinds"`
	SimMaxMS  float64               `json:"sim_max_ms"`
	Committed int64                 `json:"committed"` // simulated instructions computed (traced sweeps)
	Tasks     uint64                `json:"tasks"`
	Steals    uint64                `json:"steals"`
	Parks     uint64                `json:"parks"`
	BusyMS    float64               `json:"busy_ms"`
	AllocMB   float64               `json:"alloc_mb"`
	GCs       float64               `json:"gcs"`
	PauseMS   float64               `json:"pause_ms"`
	Executed  uint64                `json:"executed"`
	Deduped   uint64                `json:"deduped"`
	Hits      uint64                `json:"hits"`
	Misses    uint64                `json:"misses"`
	Evictions uint64                `json:"evictions"`
	Resident  int64                 `json:"bytes_resident"`
	PeakRSSMB float64               `json:"peak_rss_mb"`
	// CPUNS is the sweep process's user plus system CPU time, filled in
	// by the benchmark from the exited process.
	CPUNS int64   `json:"cpu_ns"`
	Spans []*span `json:"spans,omitempty"`
}

// sweepOrder is the seeded order of one sweep: the seed permutes the
// order figures run in and the order benchmarks are submitted.
func sweepOrder(rng *rand.Rand) (figs, benches []string) {
	figs = slices.Clone(expt.FigureIDs())
	benches = slices.Clone(workload.Benchmarks)
	rng.Shuffle(len(figs), func(i, j int) { figs[i], figs[j] = figs[j], figs[i] })
	rng.Shuffle(len(benches), func(i, j int) { benches[i], benches[j] = benches[j], benches[i] })
	return figs, benches
}

// simCounter sums the committed instructions of every simulation an
// engine computes. It rides the engine's Replicate hook, which is
// handed each locally computed artifact.
type simCounter struct{ committed atomic.Int64 }

func (c *simCounter) Replicate(_ context.Context, _ string, val any) {
	if r, ok := val.(*cluster.Result); ok {
		c.committed.Add(r.Committed)
	}
}

// runSweep runs one sweep: a fresh engine, the pipeline of every
// benchmark (the set-up), then every figure. Traced, it records a span
// around each call into expt and counts the simulated instructions.
func runSweep(ctx context.Context, budget int, figs, benches []string, traced bool) (*sweepResult, error) {
	var rec *recorder
	opts := engine.Options{}
	var sims simCounter
	if traced {
		rec = &recorder{}
		opts.Replicate = &sims
	}
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	cpu0 := processCPU()
	root := rec.start("sweep", nil, "")
	start := time.Now()
	// The engine does not close a scheduler it builds itself, so the
	// sweep owns one.
	sch := sched.New(budget)
	defer sch.Close()
	opts.Sched = sch
	eng := engine.New(opts)
	defer eng.Close()
	sp := rec.start("expt.NewSuiteEngineCtx", root, "")
	suite, err := expt.NewSuiteEngineCtx(ctx, eng, workload.SizeTest, benches)
	sp.end()
	if err != nil {
		return nil, err
	}
	res := &sweepResult{SetupsNS: []int64{int64(time.Since(start))}, FigureNS: map[string]int64{}}
	// The seed permutes submission order only; tables list benchmarks
	// in the suite's canonical order.
	slices.SortFunc(suite.Benches, func(a, b *expt.Bench) int {
		return slices.Index(workload.Benchmarks, a.Name) - slices.Index(workload.Benchmarks, b.Name)
	})
	csv := map[string][]byte{}
	for _, id := range figs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sp := rec.start("expt.Suite.Run", root, "")
		sp.set("figure", id)
		t0 := time.Now()
		tab, err := suite.Run(id)
		res.FigureNS[id] = int64(time.Since(t0))
		sp.end()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", id, err)
		}
		var buf bytes.Buffer
		if err := tab.RenderCSV(&buf); err != nil {
			return nil, err
		}
		buf.WriteByte('\n')
		csv[id] = buf.Bytes()
	}
	res.WallNS = int64(time.Since(start))
	res.CPUNS = int64(processCPU() - cpu0)
	root.end()
	runtime.ReadMemStats(&mem1)

	h := sha256.New()
	for _, id := range expt.FigureIDs() {
		h.Write(csv[id])
	}
	res.Digest = hex.EncodeToString(h.Sum(nil))
	st := eng.Stats()
	res.Kinds = map[string][2]float64{}
	for kind, l := range st.Latency {
		res.Kinds[kind] = [2]float64{float64(l.Count), l.TotalMS}
	}
	res.SimMaxMS = st.Latency["sim"].MaxMS
	res.Tasks, res.Steals, res.Parks = st.Sched.Submitted, st.Sched.Steals, st.Sched.Parks
	for _, w := range st.Sched.PerWorker {
		res.BusyMS += w.BusyMS
	}
	res.AllocMB = float64(mem1.TotalAlloc-mem0.TotalAlloc) / (1 << 20)
	res.GCs = float64(mem1.NumGC - mem0.NumGC)
	res.PauseMS = float64(mem1.PauseTotalNs-mem0.PauseTotalNs) / 1e6
	res.Executed, res.Deduped = st.Executed, st.Deduped
	res.Hits, res.Misses, res.Evictions = st.Cache.Hits, st.Cache.Misses, st.Cache.Evictions
	res.Resident = st.Cache.BytesResident
	res.PeakRSSMB = selfPeakRSSMB()
	if traced {
		res.Committed = sims.committed.Load()
		res.Spans = rec.spans
	}
	return res, nil
}

// setupSamples is how many times a sweep process builds the pipeline.
// The builds before the sweep, each on a throwaway engine, only add
// set-up samples: one build per sweep is too few for a steady median.
const setupSamples = 3

// buildPipeline times one pipeline build of every benchmark on a fresh
// engine.
func buildPipeline(ctx context.Context, budget int, benches []string) (time.Duration, error) {
	sch := sched.New(budget)
	defer sch.Close()
	eng := engine.New(engine.Options{Sched: sch})
	defer eng.Close()
	start := time.Now()
	if _, err := expt.NewSuiteEngineCtx(ctx, eng, workload.SizeTest, benches); err != nil {
		return 0, err
	}
	return time.Since(start), nil
}

// sweepMain is the sweep process: the extra pipeline builds, then one
// sweep at scheduler budget NumCPU, reported as JSON on standard output.
func sweepMain(figs, benches string, traced bool) int {
	ctx := context.Background()
	budget := runtime.NumCPU()
	order := strings.Split(benches, ",")
	var setups []int64
	for range setupSamples - 1 {
		d, err := buildPipeline(ctx, budget, order)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: sweep:", err)
			return 1
		}
		setups = append(setups, int64(d))
	}
	// Hand the builds' memory back before the sweep, so its timing and
	// peak resident set are its own.
	debug.FreeOSMemory()
	res, err := runSweep(ctx, budget, strings.Split(figs, ","), order, traced)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sweep:", err)
		return 1
	}
	res.SetupsNS = append(setups, res.SetupsNS...)
	if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: sweep:", err)
		return 1
	}
	return 0
}

// processCPU is this process's user plus system CPU time so far.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// spawnSweep runs one sweep in a fresh process of this binary, so each
// sweep starts from an empty heap the way a spmt-experiments run does,
// and its peak resident set is its own.
func spawnSweep(ctx context.Context, figs, benches []string, traced bool) (*sweepResult, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if traced {
		tr = "1"
	}
	cmd := exec.CommandContext(ctx, self, "--sweep", strings.Join(figs, ","),
		"--benches", strings.Join(benches, ","), "--trace", tr)
	cmd.Stderr = os.Stderr
	cmd.SysProcAttr = childAttr()
	outb, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("sweep process: %w", err)
	}
	var res sweepResult
	if err := json.Unmarshal(outb, &res); err != nil {
		return nil, fmt.Errorf("sweep process output: %w", err)
	}
	return &res, nil
}

// runFigures is the figures workload: whole sweeps back to back until
// the measured time is used, each in its own process on a fresh engine
// with the scheduler budget set to the host's CPU count.
func runFigures(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	budget := runtime.NumCPU()
	rng := rand.New(rand.NewPCG(cfg.seed, 0x9e3779b97f4a7c15))
	var untraced, traced []*sweepResult
	if cfg.trace {
		out.spans = &recorder{}
	}
	start := time.Now()
	var last time.Duration
	for {
		n := len(untraced) + len(traced)
		// Start another sweep only if it is expected to end within half
		// a sweep of the measured time; a traced run needs one untraced
		// and one traced sweep.
		enough := n >= 1 && (!cfg.trace || len(traced) >= 1)
		if enough && time.Since(start)+last/2 > cfg.seconds {
			break
		}
		figs, benches := sweepOrder(rng)
		// A traced run alternates: its untraced sweeps are the
		// baseline the tracing overhead is measured against.
		traceThis := cfg.trace && n%2 == 1
		t0 := time.Now()
		sw, err := spawnSweep(ctx, figs, benches, traceThis)
		if err != nil {
			return nil, err
		}
		last = time.Since(t0)
		for range figs {
			out.ops.add("")
		}
		if sw.Digest != figuresDigest {
			for range figs {
				out.ops.mismatch()
			}
			out.fail("figure CSV digest %s, want %s (figure order %s, bench order %s)",
				sw.Digest, figuresDigest, strings.Join(figs, ","), strings.Join(benches, ","))
		}
		if traceThis {
			out.spans.adopt(sw.Spans)
			traced = append(traced, sw)
		} else {
			untraced = append(untraced, sw)
		}
	}
	figuresE2E(out, untraced)
	if cfg.trace {
		figuresLayers(out, untraced, traced, budget)
	}
	return out, nil
}

// figuresE2E sets the end-to-end metrics. The workload's operation is
// one sweep: the caller's request for every figure.
func figuresE2E(out *outcome, sweeps []*sweepResult) {
	var setup, wall, rss, cpu []float64
	var total int64
	for _, sw := range sweeps {
		for _, d := range sw.SetupsNS {
			setup = append(setup, float64(d)/1e9)
		}
		wall = append(wall, float64(sw.WallNS)/1e9)
		rss = append(rss, sw.PeakRSSMB)
		cpu = append(cpu, float64(sw.CPUNS)/1e6)
		total += sw.WallNS
	}
	out.e2e["setup_s"] = median(setup)
	out.e2e["wall_s"] = median(wall)
	out.e2e["throughput_rps"] = float64(len(sweeps)) / (float64(total) / 1e9)
	out.e2e["latency_p50_ms"] = median(wall) * 1e3
	out.e2e["peak_rss_mb"] = median(rss)
	out.e2e["cpu_ms_per_op"] = median(cpu)
	out.info["sweeps"] = float64(len(sweeps))
}

// figuresLayers reports per-sweep averages over the traced sweeps,
// taken from the engine's own counters.
func figuresLayers(out *outcome, untraced, traced []*sweepResult, budget int) {
	n := float64(len(traced))
	lat := map[string][2]float64{} // kind → calls, busy ms
	var maxSim, busy, wallMS float64
	var committed int64
	sum := map[string]float64{}
	figMS := map[string][]float64{}
	for _, sw := range traced {
		for kind, l := range sw.Kinds {
			v := lat[kind]
			lat[kind] = [2]float64{v[0] + l[0], v[1] + l[1]}
		}
		maxSim = max(maxSim, sw.SimMaxMS)
		committed += sw.Committed
		busy += sw.BusyMS
		wallMS += float64(sw.WallNS) / 1e6
		sum["sched.tasks"] += float64(sw.Tasks)
		sum["sched.steals"] += float64(sw.Steals)
		sum["sched.parks"] += float64(sw.Parks)
		sum["runtime.alloc_mb"] += sw.AllocMB
		sum["runtime.gc_cycles"] += sw.GCs
		sum["runtime.gc_pause_ms"] += sw.PauseMS
		sum["engine.executed"] += float64(sw.Executed)
		sum["engine.deduped"] += float64(sw.Deduped)
		sum["engine.mem_evictions"] += float64(sw.Evictions)
		sum["engine.bytes_resident"] += float64(sw.Resident)
		sum["hits"] += float64(sw.Hits)
		sum["misses"] += float64(sw.Misses)
		for id, d := range sw.FigureNS {
			figMS[id] = append(figMS[id], float64(d)/1e6)
		}
	}
	layerCalls(out, lat, n)
	out.layer["cluster.max_ms"] = maxSim
	out.layer["cluster.ms_per_minstr"] = perMinstr(lat["sim"][1], committed)
	out.layer["sched.busy_ratio"] = busy / (float64(budget) * wallMS)
	for k, v := range sum {
		if strings.Contains(k, ".") {
			out.layer[k] = v / n
		}
	}
	out.layer["engine.mem_hit_ratio"] = ratio(sum["hits"], sum["hits"]+sum["misses"])
	out.layer["engine.disk_hit_ratio"] = 0
	out.layer["engine.disk_writes"] = 0
	for _, id := range expt.FigureIDs() {
		out.layer["expt."+id+"_ms"] = median(figMS[id])
	}
	notServed(out)
	var base, tw []float64
	for _, sw := range untraced {
		base = append(base, float64(sw.WallNS))
	}
	for _, sw := range traced {
		tw = append(tw, float64(sw.WallNS))
	}
	out.layer["trace.overhead_ratio"] = overhead(tw, base)
}

// notServed zeroes the serving-path layers a workload does not reach
// (no server, admission gate or shard cluster in process).
func notServed(out *outcome) {
	for _, m := range perLayer {
		if strings.HasPrefix(m.name, "shard.") || strings.HasPrefix(m.name, "admit.") || strings.HasPrefix(m.name, "server.") {
			if _, ok := out.layer[m.name]; !ok {
				out.layer[m.name] = 0
			}
		}
	}
}
