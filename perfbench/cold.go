package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/expt"
	"repro/internal/sched"
	"repro/internal/workload"
)

// tablePolicies are the spawn policies that build a spawn table ("none"
// builds none); set-up warms all four.
var tablePolicies = []string{"profile", "heuristics", "profile-indep", "profile-pred"}

var (
	simTUs     = []int{2, 4, 8, 16}
	predictors = []string{"perfect", "stride", "context", "last-value"}
)

// simSpec is one /v1/simulate request.
type simSpec struct {
	Bench     string `json:"bench"`
	Size      string `json:"size,omitempty"`
	Policy    string `json:"policy"`
	TUs       int    `json:"tus"`
	Predictor string `json:"predictor"`
	Overhead  int64  `json:"overhead"`
}

func (s simSpec) key() string {
	return fmt.Sprintf("sim/%s/%s/%d/%s/%d", s.Bench, s.Policy, s.TUs, s.Predictor, s.Overhead)
}

func (s simSpec) simKey() string {
	return expt.SimKey(workload.SizeTest, s.expt())
}

func (s simSpec) expt() expt.SimSpec {
	return expt.SimSpec{Bench: s.Bench, Policy: s.Policy, TUs: s.TUs, Predictor: predictorKind(s.Predictor), Overhead: s.Overhead}
}

func predictorKind(name string) cluster.PredictorKind {
	switch name {
	case "stride":
		return cluster.Stride
	case "context":
		return cluster.Context
	case "last-value":
		return cluster.LastValue
	}
	return cluster.Perfect
}

func (s simSpec) body() []byte {
	s.Size = "test"
	b, _ := json.Marshal(s)
	return b
}

// coldStream yields pairwise-distinct seeded specs: every request of a
// serve-cold run misses the simulation cache. One stream is shared by
// all clients, so no two clients ever send the same spec. The specs go
// in rounds: each round names every (benchmark, table policy) pair once,
// in a seeded order, so every spawn table is used at least once in any
// 63 consecutive requests and stays resident (see coldCacheEntries).
type coldStream struct {
	mu    sync.Mutex
	rng   *rand.Rand
	seen  map[string]simSpec
	round []int // (benchmark, policy) pairs left in this round
}

func newColdStream(seed uint64) *coldStream {
	return &coldStream{rng: rand.New(rand.NewPCG(seed, 0xc01d)), seen: map[string]simSpec{}}
}

func (c *coldStream) spec() simSpec {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.round) == 0 {
		c.round = c.rng.Perm(len(workload.Benchmarks) * len(tablePolicies))
	}
	bp := c.round[0]
	c.round = c.round[1:]
	for {
		s := simSpec{
			Bench:     workload.Benchmarks[bp/len(tablePolicies)],
			Policy:    tablePolicies[bp%len(tablePolicies)],
			TUs:       simTUs[c.rng.IntN(len(simTUs))],
			Predictor: predictors[c.rng.IntN(len(predictors))],
			Overhead:  int64(c.rng.IntN(1024)),
		}
		if _, dup := c.seen[s.key()]; !dup {
			c.seen[s.key()] = s
			return s
		}
	}
}

// coldSource is one client's view of the shared stream.
type coldSource struct {
	stream *coldStream
	sample func(key string) bool
}

func (c coldSource) next() op {
	s := c.stream.spec()
	return op{path: "/v1/simulate", body: s.body(), key: s.key(), fresh: []bool{true}, sampleSpan: c.sample(s.key())}
}

// sampled is a seeded 1-in-n choice over keys.
func sampled(seed uint64, n uint32) func(key string) bool {
	return func(key string) bool {
		h := fnv.New32a()
		fmt.Fprintf(h, "%d/%s", seed, key)
		return h.Sum32()%n == 0
	}
}

// clients is the closed-loop client count: one per CPU.
func clients() int { return runtime.NumCPU() }

// postAll sends every request to its URL, spread over one closed-loop
// client per CPU, and returns the first failure: a transport error or a
// reply other than 200.
func postAll(ctx context.Context, urls []string, bodies [][]byte) error {
	errs := make(chan error, clients())
	next := make(chan int)
	for range clients() {
		go func() {
			hc := newClient()
			defer hc.CloseIdleConnections()
			var err error
			for i := range next {
				if err != nil {
					continue
				}
				r, perr := post(ctx, hc, urls[i], bodies[i], "")
				if perr != nil {
					err = perr
				} else if r.status != http.StatusOK {
					err = fmt.Errorf("set-up %s %s: status %d: %s", urls[i], bodies[i], r.status, bytes.TrimSpace(r.body))
				}
			}
			errs <- err
		}()
	}
	for i := range urls {
		next <- i
	}
	close(next)
	var first error
	for range clients() {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// warmPairs builds every benchmark's pipeline and the spawn tables of
// the four table policies through /v1/pairs.
func warmPairs(ctx context.Context, url string) error {
	var urls []string
	var bodies [][]byte
	for _, b := range workload.Benchmarks {
		for _, p := range tablePolicies {
			urls = append(urls, url+"/v1/pairs")
			bodies = append(bodies, pairsSpec{b, p}.body())
		}
	}
	return postAll(ctx, urls, bodies)
}

// setupRepeats is how many times a serving run sets up: the reported
// set-up time is their median, and the last set-up is the one measured.
const setupRepeats = 3

// setUp runs the set-up setupRepeats times and returns the median time
// and the last fleet. Earlier fleets are stopped as soon as timed.
func setUp(ctx context.Context, once func() (*fleet, error)) (float64, *fleet, error) {
	var times []float64
	var f *fleet
	for i := range setupRepeats {
		t0 := time.Now()
		var err error
		f, err = once()
		if err != nil {
			return 0, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < setupRepeats-1 {
			f.stop()
		}
	}
	return median(times), f, nil
}

// coldCacheEntries bounds the serve-cold server's memory tier. Every
// request computes a new simulation whose cached result keeps the
// simulator's working state reachable (several MB each), so at the
// default bound a run would grow the server by gigabytes. Set-up leaves
// 72 entries (5 pipeline stages of 8 benchmarks, 32 spawn tables), so
// at least 88 are left for results. A request uses one table, and the
// tier evicts the least recently used entry; since coldStream uses
// every table at least once in any 63 consecutive requests, no table is
// evicted and no pipeline layer runs inside the window (core.calls and
// heuristic.calls are 0 on a traced run).
const coldCacheEntries = 160

// runServeCold is the serve-cold workload: one spmt-server with the
// scheduler budget set to the CPU count and admission at its default,
// its pipelines and spawn tables warmed, then closed-loop clients
// sending distinct /v1/simulate specs that all miss the sim cache.
func runServeCold(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	boot := func() (*fleet, error) {
		f, err := startFleet(ctx, cfg.serverBin, cfg.workDir, 1, func(i int, urls []string, dir string) []string {
			return []string{"-addr", urls[i][len("http://"):], "-parallel", fmt.Sprint(runtime.NumCPU()),
				"-cache-entries", fmt.Sprint(coldCacheEntries)}
		})
		if err != nil {
			return nil, err
		}
		if err := warmPairs(ctx, f.nodes[0].url); err != nil {
			f.stop()
			return nil, err
		}
		return f, nil
	}
	setup, f, err := setUp(ctx, boot)
	if err != nil {
		return nil, err
	}
	defer f.stop()
	urls := []string{f.nodes[0].url}

	stream := newColdStream(cfg.seed)
	verify := sampled(cfg.seed, 64)
	chk := newChecker()
	chk.keep = verify
	sources := make([]opSource, clients())
	for i := range sources {
		sources[i] = coldSource{stream: stream, sample: sampled(cfg.seed+1, 8)}
	}
	const scriptLen = 10
	hc := newClient()
	defer hc.CloseIdleConnections()
	var before, after []serverStats
	if cfg.trace {
		out.spans = &recorder{}
		if before, err = f.snapshot(ctx, hc); err != nil {
			return nil, err
		}
	}
	cpu0, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	w := drive(ctx, urls, sources, scriptLen, cfg.seconds, chk, out.spans, fmt.Sprintf("cold%d", cfg.seed), out)
	if cfg.trace {
		if after, err = f.snapshot(ctx, hc); err != nil {
			return nil, err
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	rss, err := f.peakRSSMB()
	if err != nil {
		return nil, err
	}
	cpu1, err := f.cpuTime()
	if err != nil {
		return nil, err
	}
	f.stop()

	out.ops.merge(w.ops)
	if err := recompute(chk.kept, stream.seen, out); err != nil {
		return nil, err
	}
	servingE2E(out, w, setup, rss, cpu1-cpu0)
	out.info["sim_minstr_per_s"] = float64(w.committed) / 1e6 / w.wall.Seconds()
	if cfg.trace {
		serverLayers(out, before, after, w)
	}
	return out, nil
}

// servingE2E sets the end-to-end metrics of a serving window.
func servingE2E(out *outcome, w *window, setup, rss float64, cpu time.Duration) {
	out.e2e["setup_s"] = setup
	out.e2e["wall_s"] = median(w.scripts)
	out.e2e["throughput_rps"] = float64(w.ok) / w.wall.Seconds()
	out.e2e["latency_p50_ms"] = median(w.single)
	out.e2e["peak_rss_mb"] = rss
	out.e2e["cpu_ms_per_op"] = ms(cpu) / float64(w.ok)
	out.info["samples"] = float64(len(w.single))
	out.info["scripts"] = float64(len(w.scripts))
	out.info["fail_ratio"] = w.ops.ratio()
	if p99, err := checkedPercentile("latency_p99_ms", w.single, 0.99); err == nil {
		out.info["latency_p99_ms"] = p99
	} else {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
}

// recompute checks sampled serve-cold responses against the library:
// each spec is simulated again in process, and the server's result must
// match it byte for byte.
func recompute(kept map[string][]byte, specs map[string]simSpec, out *outcome) error {
	if len(kept) == 0 {
		return fmt.Errorf("no response was sampled for recomputation")
	}
	var names []string
	for key := range kept {
		if b := specs[key].Bench; !slices.Contains(names, b) {
			names = append(names, b)
		}
	}
	sch := sched.New(runtime.NumCPU())
	defer sch.Close()
	eng := engine.New(engine.Options{Sched: sch})
	defer eng.Close()
	suite, err := expt.NewSuiteEngine(eng, workload.SizeTest, names)
	if err != nil {
		return err
	}
	for _, key := range sortedNames(kept) {
		sp := specs[key]
		res, err := suite.Sim(suite.Bench(sp.Bench), sp.expt())
		if err != nil {
			return err
		}
		want, err := json.Marshal(res)
		if err != nil {
			return err
		}
		var resp struct {
			Result json.RawMessage `json:"result"`
		}
		if err := json.Unmarshal(kept[key], &resp); err != nil || !bytes.Equal(resp.Result, want) {
			out.ops.mismatch()
			out.fail("%s: server result differs from the in-process recomputation", key)
		}
	}
	out.info["recomputed"] = float64(len(kept))
	return nil
}
