package main

import (
	"encoding/json"
	"net/http"
	"os"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// Span headers: the client names its request and its own span; each
// traced hop replaces the parent with its own span id before passing the
// request on, so the router's outbound request carries the router span.
const (
	reqHeader  = "X-Request-Id"
	spanHeader = "X-Bench-Span"
)

// span is one timed interval of the traced run. Times are offsets from
// the tracer's start. A shadow span is a kernel call the benchmark made
// itself, with the request's arguments on the request's view, right after
// the handler returned: it is not nested in its parent, and its duration
// is what the parent's handler spent in the same call.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent,omitempty"`
	Req    int64         `json:"req"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Shadow bool          `json:"shadow,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps every span in memory until the run writes them out.
type tracer struct {
	epoch time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() time.Duration { return time.Since(t.epoch) }
func (t *tracer) newID() int64       { return t.ids.Add(1) }

func (t *tracer) add(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// snapshot returns a copy of the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores every span as JSON at path.
func (t *tracer) write(path string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// shadowFunc maps a request to the kernel call its handler makes, or nil.
// missed reports whether the handler missed the result cache, so the
// shadow call can take the uncached path too.
type shadowFunc func(r *http.Request, missed bool) func()

// wrap records a span named layer.<op class> around next.ServeHTTP, then
// the shadow kernel call for the request if shadow maps one. missedFn
// reports cache misses of the request's workspace during the handler.
func (t *tracer) wrap(layer string, next http.Handler, shadow shadowFunc, misses func(r *http.Request) uint64) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, _ := strconv.ParseInt(r.Header.Get(reqHeader), 10, 64)
		parent, _ := strconv.ParseInt(r.Header.Get(spanHeader), 10, 64)
		if req == 0 {
			next.ServeHTTP(w, r) // replication and probe traffic
			return
		}
		id := t.newID()
		r.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		class := opClass(r.Method, r.URL.Path)
		var m0 uint64
		if misses != nil {
			m0 = misses(r)
		}
		start := t.now()
		next.ServeHTTP(w, r)
		t.add(span{ID: id, Parent: parent, Req: req, Name: layer + "." + class, Start: start, End: t.now()})
		if shadow == nil {
			return
		}
		missed := misses != nil && misses(r) > m0
		if f := shadow(r, missed); f != nil {
			ks := t.now()
			f()
			t.add(span{ID: t.newID(), Parent: id, Req: req, Name: "kernel." + class, Start: ks, End: t.now(), Shadow: true})
		}
	})
}

// selfTimes returns every span's self time: its duration minus the part
// of its interval covered by its descendants, minus the durations of its
// shadow children (the kernel calls its handler made).
func selfTimes(spans []span) map[int64]time.Duration {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	var subtree func(id int64, out []span) []span
	subtree = func(id int64, out []span) []span {
		for _, c := range kids[id] {
			out = append(out, c)
			out = subtree(c.ID, out)
		}
		return out
	}
	self := make(map[int64]time.Duration, len(spans))
	for _, s := range spans {
		d := s.dur() - covered(s, subtree(s.ID, nil))
		for _, c := range kids[s.ID] {
			if c.Shadow {
				d -= c.dur()
			}
		}
		self[s.ID] = d
	}
	return self
}

// covered is the length of s's interval that the union of the given
// spans' intervals covers.
func covered(s span, in []span) time.Duration {
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, c := range in {
		a, b := max(c.Start, s.Start), min(c.End, s.End)
		if a < b {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end time.Duration
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}
