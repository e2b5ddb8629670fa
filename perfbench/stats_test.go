package main

import (
	"math"
	"testing"
)

func TestPercentile(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ q, want float64 }{{0.5, 3}, {0.25, 2}, {0.75, 4}, {0.1, 1.4}} {
		if got := percentile(xs, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.q, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Errorf("percentile sorted its input in place")
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Errorf("percentile of no samples is not NaN")
	}
}

// TestSampleRule pins the rule every reported percentile follows: at
// least ten samples beyond it, so p99 needs 1000 samples.
func TestSampleRule(t *testing.T) {
	for _, c := range []struct {
		q    float64
		want int
	}{{0.99, 1000}, {0.9, 100}, {0.5, 20}} {
		if got := minSamples(c.q); got != c.want {
			t.Errorf("minSamples(%v) = %d, want %d", c.q, got, c.want)
		}
	}
	xs := make([]float64, 999)
	for i := range xs {
		xs[i] = float64(i)
	}
	if _, err := checkedPercentile("p99", xs, 0.99); err == nil {
		t.Errorf("p99 of 999 samples was reported")
	}
	xs = append(xs, 999)
	v, err := checkedPercentile("p99", xs, 0.99)
	if err != nil {
		t.Fatalf("p99 of 1000 samples: %v", err)
	}
	beyond := 0
	for _, x := range xs {
		if x > v {
			beyond++
		}
	}
	if beyond < minBeyond {
		t.Errorf("p99 = %v leaves %d samples beyond it, want >= %d", v, beyond, minBeyond)
	}
}

// TestFailureCounting pins what counts as a failed operation: any
// non-200 (429 and 504 included), a transport error, and a byte
// mismatch, each counted once against the attempts.
func TestFailureCounting(t *testing.T) {
	for code, want := range map[int]string{200: "", 429: failRejected, 504: failDeadline, 500: failStatus, 404: failStatus, 503: failStatus} {
		if got := statusReason(code); got != want {
			t.Errorf("statusReason(%d) = %q, want %q", code, got, want)
		}
	}
	var a tally
	a.add("")
	a.add(statusReason(429))
	a.add(statusReason(504))
	a.add(failTransport)
	a.add("")
	a.mismatch() // the last success turns out to differ from its reference
	if a.attempted != 5 || a.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 5 and 4", a.attempted, a.failed)
	}
	var b tally
	b.add("")
	b.add(statusReason(500))
	a.merge(b)
	if a.attempted != 7 || a.failed != 5 || a.ratio() != 5.0/7 {
		t.Errorf("merged: attempted %d failed %d ratio %v", a.attempted, a.failed, a.ratio())
	}
	for reason, n := range map[string]int{failRejected: 1, failDeadline: 1, failTransport: 1, failMismatch: 1, failStatus: 1} {
		if a.reasons[reason] != n {
			t.Errorf("reason %s counted %d times, want %d", reason, a.reasons[reason], n)
		}
	}
}

func TestSelfTime(t *testing.T) {
	s := &serverSpan{Start: 0, Dur: 100, Children: []*serverSpan{
		{Start: 50, Dur: 30}, {Start: 10, Dur: 20}, {Start: 20, Dur: 20}, {Start: 90, Dur: 50},
	}}
	// Covered: [10,40) and [50,80) and [90,100) = 30+30+10.
	if got := s.selfTime(); got != 30 {
		t.Errorf("selfTime = %v, want 30", got)
	}
}
