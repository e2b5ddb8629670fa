package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/shard"
	"repro/internal/workload"
)

// The serve-mixed traffic parameters below (mix, universe, skew, batch
// length, overheads) are assumptions, not measured traffic; README.md
// gives the reason for each value and the hit ratios they produce.

// The serve-mixed request mix, as exact counts per block of mixBlock
// requests in a seeded order, so every run sends the same shares.
const (
	mixBlock = 20
	mixBatch = 1 // small /v1/batch streams: warm specs and one fresh
	mixFresh = 1 // fresh single /v1/simulate specs (the write path)
	mixPairs = 3 // warm /v1/pairs; the rest are warm /v1/simulate
)

type opKind int

const (
	kindWarm opKind = iota
	kindPairs
	kindFresh
	kindBatch
)

const (
	universeSize = 32 // warm sim specs pre-warmed at set-up
	batchLen     = 4  // specs per measured batch, the last one fresh
	// mixedCacheBytes is each node's memory-tier budget: below the ~88MB
	// a node's pipelines, tables and results take, so part of the
	// working set is served from the disk tier through the codec.
	mixedCacheBytes = "64MB"
	// mixedCacheEntries bounds the memory tier by count as well: the
	// byte budget charges a simulation result a few hundred bytes, but
	// a freshly computed one keeps the simulator's working state (several
	// MB) reachable. Past the bound, old results are demoted to the disk
	// tier, whose decoded copies are small.
	mixedCacheEntries = 96
	mixedNodes        = 2
)

// warmPolicies are the policies of the warm universe and of the
// /v1/pairs requests; set-up builds their tables.
var warmPolicies = []string{"profile", "heuristics"}

// universe is the seeded set of warm specs, hottest first.
func universe(seed uint64) []simSpec {
	rng := rand.New(rand.NewPCG(seed, 0x0411))
	seen := map[string]bool{}
	var u []simSpec
	for len(u) < universeSize {
		s := simSpec{
			Bench:     workload.Benchmarks[rng.IntN(len(workload.Benchmarks))],
			Policy:    warmPolicies[rng.IntN(len(warmPolicies))],
			TUs:       simTUs[rng.IntN(len(simTUs))],
			Predictor: predictors[rng.IntN(len(predictors))],
			Overhead:  int64(rng.IntN(8)),
		}
		if !seen[s.key()] {
			seen[s.key()] = true
			u = append(u, s)
		}
	}
	return u
}

type pairsSpec struct{ bench, policy string }

// pairsUniverse is every warm (benchmark, policy) pair in a seeded
// order, hottest first.
func pairsUniverse(seed uint64) []pairsSpec {
	var ps []pairsSpec
	for _, b := range workload.Benchmarks {
		for _, p := range warmPolicies {
			ps = append(ps, pairsSpec{b, p})
		}
	}
	rng := rand.New(rand.NewPCG(seed, 0x9a125))
	rng.Shuffle(len(ps), func(i, j int) { ps[i], ps[j] = ps[j], ps[i] })
	return ps
}

func (p pairsSpec) body() []byte {
	b, _ := json.Marshal(map[string]string{"bench": p.bench, "policy": p.policy, "size": "test"})
	return b
}

func (p pairsSpec) key() string { return "pairs/" + p.bench + "/" + p.policy }

// mixedSource is one serve-mixed client's seeded request stream.
type mixedSource struct {
	rng      *rand.Rand
	sims     *rand.Zipf
	pairs    *rand.Zipf
	universe []simSpec
	pairsU   []pairsSpec
	client   int
	clients  int
	fresh    int      // fresh specs issued so far
	block    []opKind // the rest of the current block
	nodes    int
	ring     *shard.Ring
	sample   func(key string) bool
}

func newMixedSource(seed uint64, client, clients int, urls []string) *mixedSource {
	rng := rand.New(rand.NewPCG(seed, 0x313+uint64(client)))
	u, pu := universe(seed), pairsUniverse(seed)
	return &mixedSource{
		rng:      rng,
		sims:     rand.NewZipf(rng, 1.1, 1, uint64(len(u)-1)),
		pairs:    rand.NewZipf(rng, 1.1, 1, uint64(len(pu)-1)),
		universe: u,
		pairsU:   pu,
		client:   client,
		clients:  clients,
		nodes:    len(urls),
		ring:     shard.NewRing(urls, 0),
		sample:   sampled(seed+1, 8),
	}
}

// freshSpec is a spec no other request of the run names: its overhead
// is unique to this client and this request. Fresh specs take the
// benchmarks and TU counts in turn, so every run computes the same mix
// of simulations.
func (m *mixedSource) freshSpec() simSpec {
	k := m.fresh*m.clients + m.client
	s := simSpec{
		Bench:     workload.Benchmarks[k%len(workload.Benchmarks)],
		Policy:    warmPolicies[m.rng.IntN(len(warmPolicies))],
		TUs:       simTUs[k/len(workload.Benchmarks)%len(simTUs)],
		Predictor: predictors[m.rng.IntN(len(predictors))],
		Overhead:  int64(1000 + k),
	}
	m.fresh++
	return s
}

// kind takes the next request kind from the current block, starting a
// new seeded block when it is used up.
func (m *mixedSource) kind() opKind {
	if len(m.block) == 0 {
		m.block = make([]opKind, 0, mixBlock)
		for _, kn := range [...]struct {
			k opKind
			n int
		}{{kindBatch, mixBatch}, {kindFresh, mixFresh}, {kindPairs, mixPairs}} {
			for range kn.n {
				m.block = append(m.block, kn.k)
			}
		}
		for len(m.block) < mixBlock {
			m.block = append(m.block, kindWarm)
		}
		m.rng.Shuffle(len(m.block), func(i, j int) { m.block[i], m.block[j] = m.block[j], m.block[i] })
	}
	k := m.block[0]
	m.block = m.block[1:]
	return k
}

func (m *mixedSource) next() op {
	o := op{entry: m.rng.IntN(m.nodes)}
	switch m.kind() {
	case kindBatch:
		specs := make([]simSpec, batchLen)
		o.fresh = make([]bool, batchLen)
		for i := range batchLen - 1 {
			specs[i] = m.universe[m.sims.Uint64()]
		}
		specs[batchLen-1], o.fresh[batchLen-1] = m.freshSpec(), true
		for _, s := range specs {
			o.batchKeys = append(o.batchKeys, s.key())
		}
		o.path = "/v1/batch"
		o.body, _ = json.Marshal(map[string]any{"size": "test", "specs": specs})
		o.key = "batch"
	case kindFresh:
		s := m.freshSpec()
		o.path, o.body, o.key, o.fresh = "/v1/simulate", s.body(), s.key(), []bool{true}
		o.owner = m.ring.Owner(s.simKey())
	case kindPairs:
		p := m.pairsU[m.pairs.Uint64()]
		o.path, o.body, o.key = "/v1/pairs", p.body(), p.key()
	case kindWarm:
		s := m.universe[m.sims.Uint64()]
		o.path, o.body, o.key = "/v1/simulate", s.body(), s.key()
		o.owner = m.ring.Owner(s.simKey())
	}
	o.sampleSpan = m.sample(fmt.Sprintf("%s#%d", o.key, m.rng.Uint64()))
	return o
}

// prewarm builds the warm set through the cluster, with alternating
// entry nodes: every warm spawn table via /v1/pairs, then the universe
// via /v1/batch. It waits until both nodes hold every artifact
// (replication queue drained).
func prewarm(ctx context.Context, f *fleet, seed uint64) error {
	var urls []string
	var bodies [][]byte
	add := func(path string, body []byte) {
		urls = append(urls, f.nodes[len(urls)%len(f.nodes)].url+path)
		bodies = append(bodies, body)
	}
	for _, p := range pairsUniverse(seed) {
		add("/v1/pairs", p.body())
	}
	u := universe(seed)
	for i := 0; i < len(u); i += 16 {
		b, _ := json.Marshal(map[string]any{"size": "test", "specs": u[i:min(i+16, len(u))]})
		add("/v1/batch", b)
	}
	if err := postAll(ctx, urls, bodies); err != nil {
		return err
	}
	return f.awaitReplication(ctx)
}

// awaitReplication polls until no node has replica pushes queued.
func (f *fleet) awaitReplication(ctx context.Context) error {
	hc := newClient()
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(30 * time.Second)
	for {
		st, err := f.snapshot(ctx, hc)
		if err != nil {
			return err
		}
		pending := int64(0)
		for _, s := range st {
			if s.Shard != nil {
				pending += s.Shard.Replication.Pending
			}
		}
		if pending == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("replication still has %d pushes queued after 30s", pending)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
	}
}

// runServeMixed is the serve-mixed workload: a two-node cluster at R=2,
// each node with half the CPUs, a disk tier and a memory budget below
// its working set, pre-warmed with a seeded universe; then closed-loop
// clients send a Zipf-skewed warm mix with fresh specs and small batch
// streams, each request to a random entry node.
func runServeMixed(ctx context.Context, cfg config) (*outcome, error) {
	out := newOutcome()
	perNode := max(1, runtime.NumCPU()/mixedNodes)
	boot := func() (*fleet, error) {
		f, err := startFleet(ctx, cfg.serverBin, cfg.workDir, mixedNodes, func(i int, urls []string, dir string) []string {
			peers := urls[0]
			for _, u := range urls[1:] {
				peers += "," + u
			}
			return []string{"-addr", urls[i][len("http://"):], "-self", urls[i], "-peers", peers,
				"-parallel", fmt.Sprint(perNode), "-cache-bytes", mixedCacheBytes, "-cache-entries", fmt.Sprint(mixedCacheEntries),
				"-store-dir", filepath.Join(dir, fmt.Sprintf("store%d", i))}
		})
		if err != nil {
			return nil, err
		}
		if err := prewarm(ctx, f, cfg.seed); err != nil {
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
	urls := make([]string, len(f.nodes))
	for i, nd := range f.nodes {
		urls[i] = nd.url
	}
	sources := make([]opSource, clients())
	for i := range sources {
		sources[i] = newMixedSource(cfg.seed, i, len(sources), urls)
	}
	chk := newChecker()
	const scriptLen = 100
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
	w := drive(ctx, urls, sources, scriptLen, cfg.seconds, chk, out.spans, fmt.Sprintf("mixed%d", cfg.seed), out)
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
	servingE2E(out, w, setup, rss, cpu1-cpu0)
	out.info["batch_first_line_p50_ms"] = medianOrZero(w.batchFirst)
	out.info["batch_lines_per_s"] = float64(w.batchLines) / w.batchTime.Seconds()
	out.info["batches"] = float64(len(w.batchFirst))
	if cfg.trace {
		serverLayers(out, before, after, w)
	}
	return out, nil
}
