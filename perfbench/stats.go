package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is the sample-count rule for reported percentiles: a
// percentile is only reported when at least this many samples lie
// beyond it, so p99 needs at least 1000 samples.
const minBeyond = 10

// percentile returns the q-quantile (0 < q < 1) of xs by linear
// interpolation between closest ranks. xs need not be sorted.
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 0.5) }

// minSamples is the smallest sample count for which the q-quantile has
// at least minBeyond samples beyond it.
func minSamples(q float64) int {
	return int(math.Ceil(minBeyond/(1-q) - 1e-9))
}

// checkedPercentile is percentile under the sample-count rule: it
// errors when fewer than minSamples(q) samples were collected.
func checkedPercentile(name string, xs []float64, q float64) (float64, error) {
	if need := minSamples(q); len(xs) < need {
		return 0, fmt.Errorf("%s: %d samples, the p%g rule needs at least %d", name, len(xs), q*100, need)
	}
	return percentile(xs, q), nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tally counts operations against the number attempted. Every failed
// operation is counted once, under the first reason it failed for.
type tally struct {
	attempted int
	failed    int
	reasons   map[string]int
}

// Failure reasons an operation can be counted under.
const (
	failStatus    = "status"    // any non-200 other than the two below
	failRejected  = "rejected"  // 429 from admission control
	failDeadline  = "deadline"  // 504 from a spent deadline
	failTransport = "transport" // connection or read error
	failMismatch  = "mismatch"  // output check: bytes differ from the reference
)

// statusReason classifies an HTTP status: "" for 200, else the
// failure reason it counts under.
func statusReason(code int) string {
	switch code {
	case 200:
		return ""
	case 429:
		return failRejected
	case 504:
		return failDeadline
	default:
		return failStatus
	}
}

func (t *tally) add(reason string) {
	t.attempted++
	if reason == "" {
		return
	}
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[reason]++
}

// mismatch re-counts an operation already counted as a success as a
// failed output check.
func (t *tally) mismatch() {
	t.failed++
	if t.reasons == nil {
		t.reasons = map[string]int{}
	}
	t.reasons[failMismatch]++
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	for k, v := range o.reasons {
		if t.reasons == nil {
			t.reasons = map[string]int{}
		}
		t.reasons[k] += v
	}
}

func (t tally) ratio() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}
