package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"carcs/internal/ingest"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	v, err := tail(xs, 0.99)
	if err != nil || v != 990 {
		t.Fatalf("p99 of 1..1000 = %v, %v; want 990 with 10 beyond", v, err)
	}
	if _, err := tail(xs[:999], 0.99); err == nil {
		t.Fatal("p99 of 999 samples has 9 beyond it and must be refused")
	}
	// Ties at the percentile do not count as beyond it.
	ties := append(make([]float64, 980), make([]float64, 20)...)
	for i := 980; i < 1000; i++ {
		ties[i] = 5
	}
	if v, beyond := percentile(ties, 0.99); v != 5 || beyond != 0 {
		t.Fatalf("percentile with tied tail = %v, %d beyond; want 5, 0", v, beyond)
	}
	if m := median([]float64{3, 1, 2, 4}); m != 2.5 {
		t.Fatalf("median = %v, want 2.5", m)
	}
}

func TestSelfTimeSubtractsNestedSpans(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "client.lookup", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Name: "router.lookup", Start: 1 * ms, End: 8 * ms},
		{ID: 3, Parent: 2, Name: "server.lookup", Start: 2 * ms, End: 5 * ms},
		// The shadow kernel call runs after the handler, inside the
		// client's and router's intervals but outside the server's.
		{ID: 4, Parent: 3, Name: "kernel.lookup", Start: 5 * ms, End: 6 * ms, Shadow: true},
		// Overlapping children are covered once.
		{ID: 5, Name: "client.page", Start: 0, End: 10 * ms},
		{ID: 6, Parent: 5, Name: "server.page", Start: 2 * ms, End: 6 * ms},
		{ID: 7, Parent: 5, Name: "server.page", Start: 4 * ms, End: 12 * ms},
	}
	self := selfTimes(spans)
	want := map[int64]time.Duration{
		1: 3 * ms, // 10 minus router 1..8
		2: 3 * ms, // 7 minus server 2..5 and kernel 5..6
		3: 2 * ms, // 3 minus the kernel call it made
		4: 1 * ms,
		5: 2 * ms, // 10 minus the union 2..10
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
}

func TestProbeDeltas(t *testing.T) {
	var l layerProbe
	l.add(probeDelta{probeSnap: probeSnap{serverCPU: 2, clientCPU: 1, admitted: 1000}, queuedPeak: 1}, 1000)
	l.add(probeDelta{queuedPeak: 3}, 0)
	l.add(probeDelta{probeSnap: probeSnap{admitted: 5, shed: 1}}, 0)
	got := l.ledger()
	want := map[string]float64{
		"server.cpu_ms_per_op": 2, "client.cpu_ms_per_op": 1,
		"resilience.admitted": 1005, "resilience.shed": 1,
		// A gauge: the peak over phases, not a sum or a difference.
		"resilience.queued_peak": 3,
	}
	for k, w := range want {
		if got[k].Value != w {
			t.Errorf("%s = %v, want %v", k, got[k].Value, w)
		}
	}
}

// fakeHealth serves /api/health with the limiter's queue length taken
// from queued at each request.
func fakeHealth(queued *atomic.Int64) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintf(w, `{"resilience":{"limiter":{"queued":{"read":%d},"admitted":{"read":1},"shed":{}}}}`, queued.Load())
	}))
}

func TestQueuePeakIsPolledDuringThePhase(t *testing.T) {
	var queued atomic.Int64
	srv := fakeHealth(&queued)
	defer srv.Close()
	stop := pollQueuePeak([]string{srv.URL}, time.Millisecond)
	// The queue fills and drains while the phase runs: snapshots before
	// and after it would both read 0.
	queued.Store(4)
	time.Sleep(50 * time.Millisecond)
	queued.Store(0)
	time.Sleep(20 * time.Millisecond)
	if peak := stop(); peak != 4 {
		t.Fatalf("peak queue = %v, want 4", peak)
	}
}

func TestLimiterCountsFromHealth(t *testing.T) {
	body := `{"status":"ok","resilience":{"limiter":{"limit":8,"inflight":1,
		"queued":{"read":2,"write":0},"admitted":{"read":120,"write":30,"bulk":1},
		"shed":{"read":3},"latency_ewma_ms":0.4}}}`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/api/health" {
			http.NotFound(w, r)
			return
		}
		_, _ = w.Write([]byte(body))
	}))
	defer srv.Close()
	admitted, shed, queued, err := limiterCounts(srv.URL)
	if err != nil || admitted != 151 || shed != 3 || queued != 2 {
		t.Fatalf("limiterCounts = %v, %v, %v, %v; want 151, 3, 2", admitted, shed, queued, err)
	}
}

// fakeListing serves cursor pages over ids the way the server does.
func fakeListing(ids []string) *httptest.Server {
	return httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		after := r.URL.Query().Get("after")
		start := sort.SearchStrings(ids, after)
		if start < len(ids) && ids[start] == after {
			start++
		}
		end := min(start+pageLimit, len(ids))
		type row struct {
			ID string `json:"id"`
		}
		rows := []row{}
		for _, id := range ids[start:end] {
			rows = append(rows, row{id})
		}
		env := map[string]any{"total": len(ids), "materials": rows}
		if end < len(ids) {
			env["next_cursor"] = ids[end-1]
		}
		_ = json.NewEncoder(w).Encode(env)
	}))
}

func TestDurabilityCheckFailsOnMissingID(t *testing.T) {
	var ids []string
	for i := 0; i < 120; i++ {
		ids = append(ids, "m-"+strconv.Itoa(1000+i))
	}
	srv := fakeListing(ids)
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	if err := walkListing(c, "", ids, newRecorder()); err != nil {
		t.Fatalf("complete listing: %v", err)
	}
	want := append(append([]string(nil), ids...), "m-1060x") // acknowledged but lost
	sort.Strings(want)
	rec := newRecorder()
	err := walkListing(c, "", want, rec)
	if err == nil || rec.failed != 1 {
		t.Fatalf("missing id: err %v, %d failed ops; want an error and one failed op", err, rec.failed)
	}
}

func TestImportReadBackCheck(t *testing.T) {
	recs := []ingest.Record{{ID: "a"}, {ID: "b"}, {ID: "c"}, {ID: "d"}}
	pending := `[{"material":{"id":"b"}}]`
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		_, _ = w.Write([]byte(pending))
	}))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()
	kept, check, err := readBack(c, recs, ingest.Summary{Added: 3, Review: 1})
	if err != nil || check.failed != 0 || strings.Join(sortedIDs(kept), ",") != "a,c,d" {
		t.Fatalf("consistent import: %v, %d failed, kept %v", err, check.failed, kept)
	}
	// The job acknowledged one more material than the server holds.
	_, check, _ = readBack(c, recs, ingest.Summary{Added: 4, Review: 0})
	if check.failed == 0 {
		t.Fatal("a lost acknowledged material must fail the check")
	}
	// A classified (even-index) record must never sit in review.
	pending = `[{"material":{"id":"a"}}]`
	_, check, _ = readBack(c, recs, ingest.Summary{Added: 3, Review: 1})
	if check.failed == 0 {
		t.Fatal("a classified record in review must fail the check")
	}
}

func TestFailedOpKeepsNoLatency(t *testing.T) {
	r := newRecorder()
	r.record(opLookup, time.Millisecond, nil)
	r.record(opLookup, time.Hour, errors.New("check failed"))
	if r.attempted != 2 || r.failed != 1 || len(r.samples[opLookup]) != 1 {
		t.Fatalf("recorder %+v", r)
	}
	o := newRecorder()
	o.countFailures(r)
	if o.attempted != 2 || o.failed != 1 || len(o.samples) != 0 {
		t.Fatalf("countFailures copied latencies: %+v", o)
	}
}

func TestUntracedPassMakesNoShadowCall(t *testing.T) {
	// hits stands for a workspace's result-cache hit counter: the handler
	// and the shadow call both look the same result up.
	var hits atomic.Int64
	handler := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { hits.Add(1) })
	tr := newTracer()
	shadow := func(r *http.Request, missed bool) func() { return func() { hits.Add(1) } }
	srv := httptest.NewServer(tr.wrap("server", handler, shadow, nil))
	defer srv.Close()
	c := newConn(srv.URL)
	defer c.close()

	// Untraced requests, as the pass the cache deltas come from sends
	// them: one handler lookup each, no shadow call, no span.
	for i := 0; i < 3; i++ {
		if _, err := c.getJSON("/api/materials/x", nil); err != nil {
			t.Fatal(err)
		}
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("untraced pass counted %d cache hits for 3 requests", got)
	}
	if n := len(tr.snapshot()); n != 0 {
		t.Fatalf("untraced pass recorded %d spans", n)
	}
	// A traced request repeats the lookup in its shadow call.
	tc := c.withTrace(tr, new(atomic.Int64))
	if _, err := tc.getJSON("/api/materials/x", nil); err != nil {
		t.Fatal(err)
	}
	if got := hits.Load(); got != 5 {
		t.Fatalf("traced request: %d cache hits in all, want 5", got)
	}
	names := map[string]int{}
	for _, s := range tr.snapshot() {
		names[s.Name]++
	}
	if names["client.lookup"] != 1 || names["server.lookup"] != 1 || names["kernel.lookup"] != 1 {
		t.Fatalf("traced request spans: %v", names)
	}
}

func TestHostSlowdownScalesTimesNotMemory(t *testing.T) {
	rec := newRecorder()
	for i := 0; i < 1200; i++ {
		for _, class := range opClasses {
			rec.record(class, time.Duration(i+1)*time.Microsecond, nil)
		}
	}
	m := &measured{
		main: rec, elapsed: 2 * time.Second, extra: newRecorder(),
		setupS: []float64{4}, recoverS: []float64{3}, rssMB: []float64{100},
	}
	m.slowdown = 1
	base, err := m.result()
	if err != nil {
		t.Fatal(err)
	}
	m.slowdown = 2 // the host ran at half the nominal speed
	slow, err := m.result()
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range base.Metrics {
		want := v.Value / 2 // a duration
		switch name {
		case "ops_s":
			want = v.Value * 2
		case "rss_mb":
			want = v.Value
		}
		if got := slow.Metrics[name].Value; got != want || slow.Metrics[name].Unit != v.Unit {
			t.Errorf("%s at slowdown 2 = %v %s, want %v %s", name, got, slow.Metrics[name].Unit, want, v.Unit)
		}
	}
}

func TestHostRefSample(t *testing.T) {
	h, err := newHostRef()
	if err != nil {
		t.Fatal(err)
	}
	defer h.close()
	for i := 0; i < 3; i++ {
		if err := h.sample(); err != nil {
			t.Fatal(err)
		}
	}
	if s := h.slowdown(); !(s > 0) || len(h.samples) != 3 {
		t.Fatalf("slowdown %v over %d samples", s, len(h.samples))
	}
}

func procState(t *testing.T, pid int) byte {
	t.Helper()
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		t.Fatal(err)
	}
	return b[bytes.LastIndexByte(b, ')')+2]
}

func TestPauseServersStopsAndResumes(t *testing.T) {
	p := &serverProc{args: []string{"30"}}
	if err := p.launch("sleep"); err != nil {
		t.Skip("no sleep binary:", err)
	}
	defer p.kill()
	resume, err := pauseServers()
	if err != nil {
		t.Fatal(err)
	}
	if st := procState(t, p.pid()); st != 'T' {
		t.Fatalf("paused server in state %c, want T", st)
	}
	resume()
	deadline := time.Now().Add(5 * time.Second)
	for procState(t, p.pid()) == 'T' {
		if time.Now().After(deadline) {
			t.Fatal("server still stopped after resume")
		}
		time.Sleep(time.Millisecond)
	}
	p.kill()
	liveMu.Lock()
	defer liveMu.Unlock()
	if _, ok := live[p]; ok {
		t.Fatal("killed server is still listed as live")
	}
}
