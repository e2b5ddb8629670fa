package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one call the benchmark made into a layer: its name, start
// and end, the span that caused it, and the request it belongs to.
type span struct {
	ID      int               `json:"id"`
	Parent  int               `json:"parent,omitempty"`
	Name    string            `json:"name"`
	Request string            `json:"request,omitempty"`
	Start   int64             `json:"start_unix_nano"`
	End     int64             `json:"end_unix_nano"`
	Attrs   map[string]string `json:"attrs,omitempty"`
	// Server is the server's own stitched span tree for a sampled
	// request (GET /v1/traces/{id}), kept verbatim.
	Server json.RawMessage `json:"server,omitempty"`
}

// recorder keeps spans in memory until the run ends. A nil recorder
// records nothing, so untraced code paths need no conditionals.
type recorder struct {
	mu    sync.Mutex
	spans []*span
}

// start opens a span; call end on the result.
func (r *recorder) start(name string, parent *span, request string) *span {
	if r == nil {
		return nil
	}
	s := &span{Name: name, Request: request, Start: time.Now().UnixNano()}
	if parent != nil {
		s.Parent = parent.ID
	}
	r.mu.Lock()
	s.ID = len(r.spans) + 1
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

func (s *span) end() {
	if s != nil {
		s.End = time.Now().UnixNano()
	}
}

func (s *span) set(key, value string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = map[string]string{}
	}
	s.Attrs[key] = value
}

// adopt appends spans recorded by another recorder (a sweep process),
// renumbering them after the ones already held.
func (r *recorder) adopt(spans []*span) {
	r.mu.Lock()
	defer r.mu.Unlock()
	base := len(r.spans)
	for _, s := range spans {
		s.ID += base
		if s.Parent != 0 {
			s.Parent += base
		}
		r.spans = append(r.spans, s)
	}
}

func (r *recorder) len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.spans)
}

// write stores every span, with the host stamp, as one JSON document.
func (r *recorder) write(path string, host hostStamp) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Host  hostStamp `json:"host"`
		Spans []*span   `json:"spans"`
	}{host, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// serverSpan mirrors one node of the server's GET /v1/traces/{id}
// tree.
type serverSpan struct {
	Name     string            `json:"name"`
	Start    int64             `json:"start_unix_nano"`
	Dur      int64             `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs"`
	Children []*serverSpan     `json:"children"`
}

type serverTrace struct {
	Roots []*serverSpan `json:"roots"`
}

// selfTime is a span's duration minus the part of its interval its
// children cover.
func (s *serverSpan) selfTime() time.Duration {
	type iv struct{ a, b int64 }
	end := s.Start + s.Dur
	var ivs []iv
	for _, c := range s.Children {
		a, b := max(c.Start, s.Start), min(c.Start+c.Dur, end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	covered := int64(0)
	var cur iv
	for i, v := range ivs {
		if i == 0 || v.a > cur.b {
			covered += cur.b - cur.a
			cur = v
		} else if v.b > cur.b {
			cur.b = v.b
		}
	}
	covered += cur.b - cur.a
	return time.Duration(s.Dur - covered)
}

// walk visits every span of the tree, depth first.
func (t *serverTrace) walk(fn func(*serverSpan)) {
	var rec func([]*serverSpan)
	rec = func(ss []*serverSpan) {
		for _, s := range ss {
			fn(s)
			rec(s.Children)
		}
	}
	rec(t.Roots)
}
