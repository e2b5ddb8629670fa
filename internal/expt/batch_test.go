package expt

import (
	"context"
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/workload"
)

// TestSimBatchMatchesSequential: a batch must return exactly the
// results (the identical cached pointers) the equivalent sequence of
// Sim calls produces, in request order.
func TestSimBatchMatchesSequential(t *testing.T) {
	s, err := NewSuiteEngine(engine.New(engine.Options{Workers: 4}), workload.SizeTest, []string{"compress", "ijpeg"})
	if err != nil {
		t.Fatal(err)
	}
	var reqs []SimReq
	for _, b := range s.Benches {
		reqs = append(reqs,
			SimReq{Bench: b, Spec: BaselineSpec()},
			SimReq{Bench: b, Spec: SimSpec{Policy: "profile", TUs: 16}},
			SimReq{Bench: b, Spec: SimSpec{Policy: "heuristics", TUs: 4}},
			// Duplicate spec: must dedup onto the same artifact.
			SimReq{Bench: b, Spec: SimSpec{Policy: "profile", TUs: 16}},
		)
	}
	batch, err := s.SimBatch(reqs)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(reqs) {
		t.Fatalf("batch returned %d results for %d requests", len(batch), len(reqs))
	}
	for i, r := range reqs {
		seq, err := s.Sim(r.Bench, r.Spec)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != seq {
			t.Errorf("req %d: batch result pointer differs from sequential Sim", i)
		}
	}
	// The duplicated spec must resolve to the same artifact.
	if batch[1] != batch[3] {
		t.Error("duplicate specs in one batch returned distinct artifacts")
	}
}

// TestSimBatchUnknownPolicy surfaces spec errors before any work runs.
func TestSimBatchUnknownPolicy(t *testing.T) {
	s, err := NewSuite(workload.SizeTest, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.SimBatch([]SimReq{{Bench: s.Benches[0], Spec: SimSpec{Policy: "bogus", TUs: 1}}})
	if err == nil {
		t.Fatal("expected error for unknown policy")
	}
}

// TestSimBatchEmpty returns immediately.
func TestSimBatchEmpty(t *testing.T) {
	s, err := NewSuite(workload.SizeTest, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	out, err := s.SimBatch(nil)
	if err != nil || out != nil {
		t.Fatalf("empty batch = %v, %v; want nil, nil", out, err)
	}
}

// TestFigureRecordsSimLatency: running a figure through the batch layer
// must leave per-kind latency observations on the engine.
func TestFigureRecordsSimLatency(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	s, err := NewSuiteEngine(eng, workload.SizeTest, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run("fig3"); err != nil {
		t.Fatal(err)
	}
	lat := eng.Stats().Latency
	for _, kind := range []string{"sim", "table", "reach", "emu"} {
		if lat[kind].Count == 0 {
			t.Errorf("no %q latency recorded: %v", kind, lat)
		}
	}
}

// TestSimBatchHonoursSuiteContext: figure simulations run under the
// suite's context, so a cancelled request stops its uncached sims.
func TestSimBatchHonoursSuiteContext(t *testing.T) {
	eng := engine.New(engine.Options{Workers: 2})
	t.Cleanup(eng.Close)
	ctx, cancel := context.WithCancel(context.Background())
	s, err := NewSuiteEngineCtx(ctx, eng, workload.SizeTest, []string{"compress"})
	if err != nil {
		t.Fatal(err)
	}
	cancel()
	_, err = s.SimBatch([]SimReq{{Bench: s.Benches[0], Spec: SimSpec{Policy: "profile", TUs: 4}}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("SimBatch under a cancelled suite context: err = %v, want context.Canceled", err)
	}
}
