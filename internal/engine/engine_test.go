package engine

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/sched"
)

func leaf(key string, v any) Job {
	return Job{Key: key, Run: func(ctx context.Context, deps []any) (any, error) { return v, nil }}
}

func TestExecCachesByKey(t *testing.T) {
	e := New(Options{Workers: 4})
	var runs atomic.Int64
	j := Job{Key: "k", Run: func(ctx context.Context, deps []any) (any, error) {
		runs.Add(1)
		return 42, nil
	}}
	for i := 0; i < 3; i++ {
		v, err := e.Exec(context.Background(), j)
		if err != nil || v.(int) != 42 {
			t.Fatalf("exec %d: v=%v err=%v", i, v, err)
		}
	}
	if runs.Load() != 1 {
		t.Errorf("runs = %d, want 1", runs.Load())
	}
	st := e.Stats()
	if st.Cache.Hits != 2 || st.Executed != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 executed", st)
	}
}

func TestSingleflightDedup(t *testing.T) {
	e := New(Options{Workers: 4})
	var runs atomic.Int64
	release := make(chan struct{})
	j := Job{Key: "slow", Run: func(ctx context.Context, deps []any) (any, error) {
		runs.Add(1)
		<-release
		return "done", nil
	}}
	const callers = 16
	var wg sync.WaitGroup
	results := make([]any, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := e.Exec(context.Background(), j)
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	// Let the callers pile up on the in-flight computation, then
	// release it. A few stragglers may arrive after completion and be
	// served from cache instead — both paths must return "done" and
	// only one Run may ever happen.
	for e.Stats().Deduped == 0 {
		runtime.Gosched()
	}
	close(release)
	wg.Wait()
	if runs.Load() != 1 {
		t.Errorf("runs = %d, want 1 (singleflight)", runs.Load())
	}
	for i, v := range results {
		if v != "done" {
			t.Errorf("caller %d got %v", i, v)
		}
	}
	if st := e.Stats(); st.Deduped == 0 {
		t.Errorf("stats = %+v, want deduped > 0", st)
	}
}

func TestDepsResolveInOrder(t *testing.T) {
	e := New(Options{Workers: 4})
	sum := Job{
		Key:  "sum",
		Deps: []Job{leaf("a", 1), leaf("b", 2), leaf("c", 3)},
		Run: func(ctx context.Context, deps []any) (any, error) {
			// Outputs must arrive in declaration order.
			return deps[0].(int)*100 + deps[1].(int)*10 + deps[2].(int), nil
		},
	}
	v, err := e.Exec(context.Background(), sum)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 123 {
		t.Errorf("sum = %v, want 123", v)
	}
}

func TestSharedDepRunsOnce(t *testing.T) {
	e := New(Options{Workers: 8})
	var baseRuns atomic.Int64
	base := Job{Key: "base", Run: func(ctx context.Context, deps []any) (any, error) {
		baseRuns.Add(1)
		return 7, nil
	}}
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			j := Job{
				Key:  fmt.Sprintf("derived/%d", i),
				Deps: []Job{base},
				Run: func(ctx context.Context, deps []any) (any, error) {
					return deps[0].(int) * i, nil
				},
			}
			if _, err := e.Exec(context.Background(), j); err != nil {
				t.Error(err)
			}
		}(i)
	}
	wg.Wait()
	if baseRuns.Load() != 1 {
		t.Errorf("base ran %d times, want 1", baseRuns.Load())
	}
}

func TestDeepChainDoesNotDeadlockPool(t *testing.T) {
	// A dependency chain much deeper than the pool: slots must be
	// released while waiting on deps or this hangs.
	e := New(Options{Workers: 1})
	j := leaf("d0", 0)
	for i := 1; i <= 64; i++ {
		prev := j
		j = Job{
			Key:  fmt.Sprintf("d%d", i),
			Deps: []Job{prev},
			Run: func(ctx context.Context, deps []any) (any, error) {
				return deps[0].(int) + 1, nil
			},
		}
	}
	v, err := e.Exec(context.Background(), j)
	if err != nil {
		t.Fatal(err)
	}
	if v.(int) != 64 {
		t.Errorf("depth = %v, want 64", v)
	}
}

func TestErrorsPropagateAndAreNotCached(t *testing.T) {
	e := New(Options{Workers: 2})
	boom := errors.New("boom")
	var runs atomic.Int64
	j := Job{Key: "flaky", Run: func(ctx context.Context, deps []any) (any, error) {
		if runs.Add(1) == 1 {
			return nil, boom
		}
		return "ok", nil
	}}
	if _, err := e.Exec(context.Background(), j); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	// The failure must not be cached: the retry runs and succeeds.
	v, err := e.Exec(context.Background(), j)
	if err != nil || v != "ok" {
		t.Fatalf("retry: v=%v err=%v", v, err)
	}
	// A dependency failure aborts the parent before its Run.
	parent := Job{
		Key:  "parent",
		Deps: []Job{{Key: "dep-fail", Run: func(ctx context.Context, deps []any) (any, error) { return nil, boom }}},
		Run: func(ctx context.Context, deps []any) (any, error) {
			t.Error("parent ran despite failed dep")
			return nil, nil
		},
	}
	if _, err := e.Exec(context.Background(), parent); !errors.Is(err, boom) {
		t.Errorf("parent err = %v, want boom", err)
	}
}

func TestContextCancellation(t *testing.T) {
	e := New(Options{Workers: 1})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := e.Exec(ctx, leaf("never", 1))
	if !errors.Is(err, context.Canceled) {
		t.Errorf("err = %v, want context.Canceled", err)
	}
}

func TestUnkeyedJobsAlwaysRun(t *testing.T) {
	e := New(Options{Workers: 2})
	var runs atomic.Int64
	j := Job{Run: func(ctx context.Context, deps []any) (any, error) {
		return runs.Add(1), nil
	}}
	for want := int64(1); want <= 3; want++ {
		v, err := e.Exec(context.Background(), j)
		if err != nil || v.(int64) != want {
			t.Fatalf("v=%v err=%v, want %d", v, err, want)
		}
	}
}

// TestParallelDeterminism checks the engine contract the experiment
// suite relies on: the same DAG evaluated serially and with many
// workers yields identical results.
func TestParallelDeterminism(t *testing.T) {
	build := func(workers int) []any {
		e := New(Options{Workers: workers})
		dag := make([]Job, 8)
		for i := range dag {
			gen := leaf(fmt.Sprintf("gen/%d", i), uint64(i)+1)
			emu := Job{
				Key:  fmt.Sprintf("emu/%d", i),
				Deps: []Job{gen},
				Run: func(ctx context.Context, deps []any) (any, error) {
					x := deps[0].(uint64)
					for k := 0; k < 1000; k++ {
						x = x*6364136223846793005 + 1442695040888963407
					}
					return x, nil
				},
			}
			dag[i] = Job{
				Key:  fmt.Sprintf("final/%d", i),
				Deps: []Job{gen, emu},
				Run: func(ctx context.Context, deps []any) (any, error) {
					return deps[0].(uint64) ^ deps[1].(uint64), nil
				},
			}
		}
		out := make([]any, len(dag))
		var wg sync.WaitGroup
		for i, j := range dag {
			wg.Add(1)
			go func(i int, j Job) {
				defer wg.Done()
				v, err := e.Exec(context.Background(), j)
				if err != nil {
					t.Error(err)
				}
				out[i] = v
			}(i, j)
		}
		wg.Wait()
		return out
	}
	serial, parallel := build(1), build(8)
	for i := range serial {
		if serial[i] != parallel[i] {
			t.Errorf("item %d: serial %v != parallel %v", i, serial[i], parallel[i])
		}
	}
}

// TestPanickedJobDoesNotWedgeKey: a panic in Run must propagate to the
// caller but still clean up the in-flight entry, so the key stays
// usable and joined callers unblock with an error instead of hanging.
func TestPanickedJobDoesNotWedgeKey(t *testing.T) {
	e := New(Options{Workers: 2})
	var runs atomic.Int64
	j := Job{Key: "panicky", Run: func(ctx context.Context, deps []any) (any, error) {
		if runs.Add(1) == 1 {
			panic("kaboom")
		}
		return "ok", nil
	}}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the caller")
			}
		}()
		e.Exec(context.Background(), j)
	}()
	done := make(chan struct{})
	go func() {
		defer close(done)
		v, err := e.Exec(context.Background(), j)
		if err != nil || v != "ok" {
			t.Errorf("retry after panic: v=%v err=%v", v, err)
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("key wedged: retry after panic hung")
	}
}

// TestJoinerRetriesAfterLeaderCancelled: a joiner with a live context
// must not inherit the leader's cancellation — it re-runs the job
// under its own context.
func TestJoinerRetriesAfterLeaderCancelled(t *testing.T) {
	e := New(Options{Workers: 2})
	leaderCtx, cancel := context.WithCancel(context.Background())
	defer cancel()
	started := make(chan struct{})
	var once sync.Once
	var runs atomic.Int64
	j := Job{Key: "k", Run: func(ctx context.Context, deps []any) (any, error) {
		if runs.Add(1) == 1 {
			once.Do(func() { close(started) })
			<-ctx.Done()
			return nil, ctx.Err()
		}
		return "ok", nil
	}}
	leaderErr := make(chan error, 1)
	go func() {
		_, err := e.Exec(leaderCtx, j)
		leaderErr <- err
	}()
	<-started
	joined := make(chan struct{})
	go func() {
		defer close(joined)
		v, err := e.Exec(context.Background(), j)
		if err != nil || v != "ok" {
			t.Errorf("joiner: v=%v err=%v, want ok under own live context", v, err)
		}
	}()
	// Give the joiner a moment to join (or arrive late and run fresh —
	// either path must yield "ok"), then cancel the leader.
	for e.Stats().Deduped == 0 && runs.Load() < 2 {
		runtime.Gosched()
	}
	cancel()
	if err := <-leaderErr; !errors.Is(err, context.Canceled) {
		t.Errorf("leader err = %v, want context.Canceled", err)
	}
	select {
	case <-joined:
	case <-time.After(5 * time.Second):
		t.Fatal("joiner hung after leader cancellation")
	}
}

// workerLoops counts live scheduler worker goroutines in the process.
func workerLoops() int {
	buf := make([]byte, 1<<20)
	for {
		if n := runtime.Stack(buf, true); n < len(buf) {
			return strings.Count(string(buf[:n]), "sched.(*worker).loop(")
		}
		buf = make([]byte, 2*len(buf))
	}
}

// onWorker reports whether the calling goroutine is a scheduler worker.
func onWorker() bool {
	buf := make([]byte, 64<<10)
	return strings.Contains(string(buf[:runtime.Stack(buf, false)]), "sched.(*worker).loop(")
}

// TestCloseStopsOwnedScheduler: an engine that built its scheduler
// stops the workers on Close, so a dropped engine does not keep parked
// goroutines (and through them its store) alive; the engine still runs
// jobs afterwards, on the calling goroutine.
func TestCloseStopsOwnedScheduler(t *testing.T) {
	before := workerLoops()
	e := New(Options{Workers: 4})
	if got := workerLoops(); got < before+4 {
		t.Fatalf("%d worker goroutines after New, want >= %d", got, before+4)
	}
	if _, err := e.Exec(context.Background(), leaf("a", 1)); err != nil {
		t.Fatal(err)
	}
	e.Close()
	deadline := time.Now().Add(5 * time.Second)
	for workerLoops() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d worker goroutines 5s after Close, want <= %d", workerLoops(), before)
		}
		time.Sleep(time.Millisecond)
	}
	var ranOnWorker bool
	if _, err := e.Exec(context.Background(), Job{Key: "b", Run: func(ctx context.Context, deps []any) (any, error) {
		ranOnWorker = onWorker()
		return 2, nil
	}}); err != nil {
		t.Fatal(err)
	}
	if ranOnWorker {
		t.Fatal("job ran on a worker of a closed scheduler")
	}
}

// TestCloseLeavesInjectedScheduler: an Options.Sched scheduler belongs
// to the caller, so Engine.Close must leave its workers running.
func TestCloseLeavesInjectedScheduler(t *testing.T) {
	s := sched.New(2)
	t.Cleanup(s.Close)
	e := New(Options{Sched: s})
	e.Close()
	var ranOnWorker bool
	if err := s.Do(context.Background(), "probe", func() { ranOnWorker = onWorker() }); err != nil {
		t.Fatal(err)
	}
	if !ranOnWorker {
		t.Fatal("Engine.Close stopped an injected scheduler")
	}
}
