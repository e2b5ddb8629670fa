package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// op is one request a closed-loop client issues.
type op struct {
	path  string // "/v1/simulate", "/v1/pairs" or "/v1/batch"
	body  []byte
	entry int // index of the node the request is sent to
	// key names the response for output checks; batch ops carry one
	// key per spec instead.
	key       string
	batchKeys []string
	// fresh marks a spec no earlier request named: the window computes
	// its simulation.
	fresh      []bool
	owner      string // owning node of the key (sharded runs)
	sampleSpan bool   // pull the server's span tree for this request
}

// opSource yields a client's requests in order. Each client has its
// own, so a client's stream depends only on the seed.
type opSource interface {
	next() op
}

// window is what the clients measured over one stretch of time.
type window struct {
	wall   time.Duration
	single []float64 // single-request latencies, ms
	// tracedSingle holds the latencies of traced scripts' single
	// requests; single then holds only the untraced ones.
	tracedSingle []float64
	scripts      []float64 // whole-script wall times, s
	batchFirst   []float64 // time to a batch stream's first line, ms
	batchLines   int
	batchTime    time.Duration
	ok           int // successful requests (a batch counts once)
	ops          tally
	committed    int64 // simulated instructions of fresh specs
	trees        []*serverTrace
	// forwarded and local split warm single simulations by whether the
	// entry node owned the key.
	forwarded, local []float64
}

func (w *window) merge(o *window) {
	w.single = append(w.single, o.single...)
	w.tracedSingle = append(w.tracedSingle, o.tracedSingle...)
	w.scripts = append(w.scripts, o.scripts...)
	w.batchFirst = append(w.batchFirst, o.batchFirst...)
	w.batchLines += o.batchLines
	w.batchTime += o.batchTime
	w.ok += o.ok
	w.ops.merge(o.ops)
	w.committed += o.committed
	w.trees = append(w.trees, o.trees...)
	w.forwarded = append(w.forwarded, o.forwarded...)
	w.local = append(w.local, o.local...)
}

// checker holds the first successful response seen for every key;
// every later one must be byte-identical to it.
type checker struct {
	mu    sync.Mutex
	first map[string][]byte
	// keep, when set, selects keys whose response bytes are kept for
	// recomputation after the run.
	keep func(key string) bool
	kept map[string][]byte
}

func newChecker() *checker {
	return &checker{first: map[string][]byte{}, kept: map[string][]byte{}}
}

// check records or compares one response; false means a mismatch.
func (c *checker) check(key string, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if prev, ok := c.first[key]; ok {
		return bytes.Equal(prev, body)
	}
	c.first[key] = bytes.Clone(body)
	if c.keep != nil && c.keep(key) {
		c.kept[key] = c.first[key]
	}
	return true
}

// drive runs one closed-loop client per source until the deadline: each
// issues its next request only after the previous reply, in scripts of
// scriptLen requests. Under a recorder every other script is traced:
// its requests are spans under the script's span, sampled ones pull
// their server span tree, and the untraced scripts between them are the
// baseline the tracing overhead is measured against.
func drive(ctx context.Context, urls []string, sources []opSource, scriptLen int, until time.Duration,
	chk *checker, rec *recorder, runTag string, out *outcome) *window {
	start := time.Now()
	// The window is the same length on every commit, however fast the
	// code under test is.
	deadline := start.Add(until)
	open := func() bool { return ctx.Err() == nil && time.Now().Before(deadline) }
	parts := make([]*window, len(sources))
	var wg sync.WaitGroup
	for ci, src := range sources {
		wg.Add(1)
		go func() {
			defer wg.Done()
			hc := newClient()
			defer hc.CloseIdleConnections()
			w := &window{}
			parts[ci] = w
			for n, s := 0, 0; open(); s++ {
				var srec *recorder
				if s%2 == 1 {
					srec = rec
				}
				script := srec.start("script", nil, "")
				t0 := time.Now()
				k := 0
				for ; k < scriptLen && open(); k++ {
					o := src.next()
					id := ""
					if srec != nil {
						id = fmt.Sprintf("%s-c%d-%d", runTag, ci, n)
					}
					n++
					issue(ctx, hc, urls, o, id, script, chk, srec, w, out)
				}
				script.end()
				if k == scriptLen {
					w.scripts = append(w.scripts, time.Since(t0).Seconds())
				}
			}
		}()
	}
	wg.Wait()
	total := &window{wall: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// issue sends one request, times it, checks its output and counts it.
func issue(ctx context.Context, hc *http.Client, urls []string, o op, traceID string, script *span,
	chk *checker, rec *recorder, w *window, out *outcome) {
	sp := rec.start("POST "+o.path, script, traceID)
	sp.set("entry", urls[o.entry])
	if o.owner != "" {
		sp.set("owner", o.owner)
	}
	r, err := post(ctx, hc, urls[o.entry]+o.path, o.body, traceID)
	sp.end()
	if err != nil {
		if ctx.Err() != nil {
			return // the run is being torn down; not an operation result
		}
		sp.set("error", err.Error())
		w.ops.add(failTransport)
		return
	}
	sp.set("status", fmt.Sprint(r.status))
	if reason := statusReason(r.status); reason != "" {
		w.ops.add(reason)
		return
	}
	if o.path == "/v1/batch" {
		lines, ok := checkBatch(r.body, o, chk, w)
		w.batchFirst = append(w.batchFirst, ms(r.firstLine))
		w.batchLines += lines
		w.batchTime += r.lat
		w.ops.add("")
		if !ok {
			w.ops.mismatch()
			out.fail("batch %s: a line differs from the first response for its key", o.body)
		} else {
			w.ok++
		}
	} else {
		if rec != nil {
			w.tracedSingle = append(w.tracedSingle, ms(r.lat))
		} else {
			w.single = append(w.single, ms(r.lat))
		}
		body, err := compact(r.body)
		w.ops.add("")
		if err != nil || !chk.check(o.key, body) {
			w.ops.mismatch()
			out.fail("%s %s: response differs from the first one for its key", o.path, o.body)
		} else {
			w.ok++
			if o.path == "/v1/simulate" {
				if o.fresh != nil && o.fresh[0] {
					w.committed += committedOf(body)
				} else if o.owner != "" {
					if o.owner == urls[o.entry] {
						w.local = append(w.local, ms(r.lat))
					} else {
						w.forwarded = append(w.forwarded, ms(r.lat))
					}
				}
			}
		}
	}
	if o.sampleSpan && rec != nil {
		var raw json.RawMessage
		if err := getJSON(ctx, hc, urls[o.entry]+"/v1/traces/"+traceID, &raw); err == nil {
			var t serverTrace
			if json.Unmarshal(raw, &t) == nil {
				w.trees = append(w.trees, &t)
				sp.Server = raw
			}
		}
	}
}

// checkBatch checks every NDJSON line of a batch stream against the
// single responses for the same spec. It returns the line count.
func checkBatch(body []byte, o op, chk *checker, w *window) (int, bool) {
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	if len(lines) != len(o.batchKeys) {
		return len(lines), false
	}
	ok := true
	for _, line := range lines {
		var head struct {
			Index *int   `json:"index"`
			Error string `json:"error"`
		}
		if err := json.Unmarshal(line, &head); err != nil || head.Index == nil || head.Error != "" ||
			*head.Index < 0 || *head.Index >= len(o.batchKeys) {
			ok = false
			continue
		}
		// A line is the /v1/simulate body with "index" prepended.
		prefix := fmt.Sprintf(`{"index":%d,`, *head.Index)
		rest, found := bytes.CutPrefix(line, []byte(prefix))
		if !found {
			ok = false
			continue
		}
		single := append([]byte("{"), rest...)
		if !chk.check(o.batchKeys[*head.Index], single) {
			ok = false
		}
		if o.fresh[*head.Index] {
			w.committed += committedOf(single)
		}
	}
	return len(lines), ok
}

// committedOf reads result.Committed from a /v1/simulate body.
func committedOf(body []byte) int64 {
	var v struct {
		Result struct{ Committed int64 } `json:"result"`
	}
	json.Unmarshal(body, &v) //nolint:errcheck // a body that does not parse counts no instructions
	return v.Result.Committed
}
