package main

import (
	"bytes"
	"math/rand/v2"
	"slices"
	"testing"

	"repro/internal/workload"
)

func TestColdStreamSeeded(t *testing.T) {
	a, b, c := newColdStream(7), newColdStream(7), newColdStream(8)
	seen := map[string]bool{}
	differs := false
	pairs := len(tablePolicies) * len(workload.Benchmarks)
	round := map[string]bool{}
	for i := range 5000 {
		x, y, z := a.spec(), b.spec(), c.spec()
		// Every round names each (benchmark, policy) pair once, so no
		// spawn table goes unused long enough to be evicted.
		if i%pairs == 0 {
			clear(round)
		}
		if bp := x.Bench + "/" + x.Policy; round[bp] {
			t.Fatalf("spec %d: %s twice in one round", i, bp)
		} else {
			round[bp] = true
		}
		if x != y {
			t.Fatalf("spec %d: same seed gave %+v and %+v", i, x, y)
		}
		differs = differs || x != z
		if seen[x.key()] {
			t.Fatalf("spec %d repeats %s", i, x.key())
		}
		seen[x.key()] = true
		if seen[x.simKey()] {
			t.Fatalf("spec %d: simulation key %s repeats", i, x.simKey())
		}
		seen[x.simKey()] = true
	}
	if !differs {
		t.Errorf("seeds 7 and 8 gave the same stream")
	}
}

func TestMixedStreamSeeded(t *testing.T) {
	urls := []string{"http://127.0.0.1:1", "http://127.0.0.1:2"}
	const n = 3000
	ops := func(seed uint64, client int) []op {
		src := newMixedSource(seed, client, 2, urls)
		out := make([]op, n)
		for i := range out {
			out[i] = src.next()
		}
		return out
	}
	same := func(a, b []op) bool {
		return slices.EqualFunc(a, b, func(x, y op) bool {
			return x.path == y.path && x.entry == y.entry && bytes.Equal(x.body, y.body) && x.owner == y.owner
		})
	}
	c0, c1 := ops(3, 0), ops(3, 1)
	if !same(c0, ops(3, 0)) {
		t.Fatalf("same seed and client gave different streams")
	}
	if same(c0, ops(4, 0)) || same(c0, c1) {
		t.Fatalf("another seed or client gave the same stream")
	}
	counts := map[string]int{}
	fresh := map[string]bool{}
	warm := map[string]bool{}
	for _, s := range universe(3) {
		warm[s.key()] = true
	}
	for _, o := range append(c0, c1...) {
		counts[o.path]++
		keys := o.batchKeys
		if keys == nil {
			keys = []string{o.key}
		}
		for i, k := range keys {
			if o.fresh != nil && o.fresh[i] {
				if fresh[k] || warm[k] {
					t.Fatalf("fresh spec %s is not new", k)
				}
				fresh[k] = true
			} else if o.path != "/v1/pairs" && !warm[k] {
				t.Fatalf("warm spec %s is outside the universe", k)
			}
		}
	}
	// The mix is exact over whole blocks: 5% batches, 15% pairs, and
	// 5% fresh singles among the 80% simulate requests.
	for path, want := range map[string]int{"/v1/batch": 2 * n / 20, "/v1/pairs": 2 * n * 3 / 20, "/v1/simulate": 2 * n * 16 / 20} {
		if counts[path] != want {
			t.Errorf("%d %s requests, want %d", counts[path], path, want)
		}
	}
	if len(universe(3)) != universeSize || len(pairsUniverse(3)) != 16 {
		t.Errorf("universe sizes %d and %d", len(universe(3)), len(pairsUniverse(3)))
	}
}

func TestSweepOrderSeeded(t *testing.T) {
	f1, b1 := sweepOrder(rand.New(rand.NewPCG(5, 0)))
	f2, b2 := sweepOrder(rand.New(rand.NewPCG(5, 0)))
	if !slices.Equal(f1, f2) || !slices.Equal(b1, b2) {
		t.Fatalf("same seed gave different orders")
	}
	if len(f1) != 15 || len(b1) != 8 {
		t.Fatalf("sweep covers %d figures and %d benchmarks, want 15 and 8", len(f1), len(b1))
	}
}
