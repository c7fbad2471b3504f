package main

import (
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Span names. Spans are recorded only from the benchmark's own code:
// around its client and coordinator calls, and by handler wrappers in
// front of the servers it starts.
const (
	spanRequest  = "bench.request"
	spanHandler  = "simserver.ServeHTTP"
	spanCoordRun = "gridcoord.Run"
	spanBackend  = "backend.ServeHTTP"
)

// span is one timed interval. Spans of one request share Req: the
// X-Trace-Id the client sets, or the coordinator mints for its backend
// calls. Start and End are nanoseconds since the tracer started.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0: root
	Name   string `json:"name"`
	Class  string `json:"class,omitempty"`
	Req    string `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory while on; off, recording is one atomic
// load.
type tracer struct {
	on    atomic.Bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add records a span and returns its id (0 when tracing is off).
func (t *tracer) add(s span) int {
	if !t.on.Load() {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.spans) + 1
	t.spans = append(t.spans, s)
	return s.ID
}

// wrap puts a span of the given name, labelled with class, around every
// request h serves.
func (t *tracer) wrap(name, class string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		start := t.now()
		h.ServeHTTP(w, r)
		t.add(span{Name: name, Class: class, Req: r.Header.Get("X-Trace-Id"), Start: start, End: t.now()})
	})
}

// snapshot returns the spans recorded so far, with handler spans linked
// to their parents.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	link(out)
	return out
}

// link sets the parent of every unparented handler span: the
// coordinator run of its request when there is one (the coordinator's
// backend calls), else the request's client span (a direct call).
func link(spans []span) {
	parent := map[string]int{}
	for _, s := range spans {
		switch s.Name {
		case spanCoordRun:
			parent[s.Req] = s.ID
		case spanRequest:
			if _, ok := parent[s.Req]; !ok {
				parent[s.Req] = s.ID
			}
		}
	}
	for i, s := range spans {
		if s.Parent == 0 && (s.Name == spanHandler || s.Name == spanBackend) {
			spans[i].Parent = parent[s.Req]
		}
	}
}

// selfTime is a span's duration minus the part of its interval its
// children cover (overlapping children counted once).
func selfTime(s span, children []span) time.Duration {
	type iv struct{ a, b int64 }
	var ivs []iv
	for _, c := range children {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, end int64
	end = s.Start
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		covered += v.b - max(v.a, end)
		end = v.b
	}
	return s.dur() - time.Duration(covered)
}

// children indexes spans by parent id.
func children(spans []span) map[int][]span {
	out := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// writeSpans writes the spans as one JSON document.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
