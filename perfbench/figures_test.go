package main

import (
	"context"
	"math/rand/v2"
	"runtime"
	"testing"
)

// TestFiguresDigestBudgets runs whole sweeps in seeded orders at
// scheduler budget 1 and at NumCPU: the CSV digest must be the
// recorded one every time.
func TestFiguresDigestBudgets(t *testing.T) {
	if testing.Short() {
		t.Skip("two full figure sweeps")
	}
	rng := rand.New(rand.NewPCG(11, 0))
	for _, budget := range []int{1, runtime.NumCPU()} {
		figs, benches := sweepOrder(rng)
		res, err := runSweep(context.Background(), budget, figs, benches, budget == 1)
		if err != nil {
			t.Fatal(err)
		}
		if res.Digest != figuresDigest {
			t.Errorf("budget %d, order %v / %v: digest %s, want %s", budget, figs, benches, res.Digest, figuresDigest)
		}
		if budget == 1 && (res.Committed == 0 || len(res.Spans) != 2+len(figs)) {
			t.Errorf("traced sweep: %d instructions computed, %d spans", res.Committed, len(res.Spans))
		}
	}
}
