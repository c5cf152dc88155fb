package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"time"

	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/coverage"
	"carcs/internal/ingest"
	"carcs/internal/material"
	"carcs/internal/replica"
	"carcs/internal/server"
	"carcs/internal/similarity"
)

// tracedSeconds caps each pass of the in-process closed loop; its spans
// need hundreds of requests per op class, not a full timed phase.
const tracedSeconds = 4 * time.Second

// tracedPosts is how many materials each connection posts after each
// pass of the in-process loop.
const tracedPosts = 50

// kernelReps is how many direct calls each kernel and commit timing takes
// the median of.
const kernelReps = 15

// host is one carcs server running inside the benchmark's process, with
// its handler wrapped by the tracer.
type host struct {
	url   string
	ws    *core.Workspaces
	p     *core.Persister   // leader only
	f     *replica.Follower // follower only
	rt    *replica.Router   // router only
	hs    *http.Server
	srv   *server.Server     // leader only: owns the import job runner
	stopF context.CancelFunc // follower only: stops replication
	ran   chan struct{}      // follower only: closed when Run returned
}

func (h *host) close() {
	if h == nil {
		return
	}
	_ = h.hs.Close() // in-process listener; nothing to report on shutdown
	if h.stopF != nil {
		h.stopF()
		<-h.ran
	}
	if h.rt != nil {
		h.rt.Close()
	}
	if h.srv != nil {
		_ = h.srv.DrainJobs(context.Background()) // every import finished before close
	}
	if h.p != nil {
		_ = h.p.Close() // the data directory is deleted after the run
	}
}

func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	go func() { _ = hs.Serve(ln) }() // returns ErrServerClosed on close
	return hs, "http://" + ln.Addr().String(), nil
}

// hostLeader opens a durable system the way carcs-server -data does and
// serves it on loopback behind the tracer.
func hostLeader(dir string, tr *tracer) (*host, error) {
	sys, p, err := core.OpenDurable(dir, core.DurableOptions{Seed: true})
	if err != nil {
		return nil, err
	}
	srv := server.New(sys, io.Discard)
	srv.SetWorkspaces(p.Workspaces())
	srv.SetPersister(p)
	srv.SetHub(replica.NewHub(p, 0))
	h := &host{ws: p.Workspaces(), p: p, srv: srv}
	h.hs, h.url, err = serve(tr.wrap("server", srv, shadowFor(h.ws), missesFor(h.ws)))
	if err != nil {
		_ = p.Close()
		return nil, err
	}
	return h, nil
}

// hostFollower bootstraps a follower of leader and serves it.
func hostFollower(leader string, tr *tracer) (*host, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f, err := replica.Bootstrap(ctx, replica.FollowerConfig{LeaderURL: leader})
	if err != nil {
		cancel()
		return nil, err
	}
	srv := server.New(f.System(), io.Discard)
	srv.SetWorkspaces(f.Workspaces())
	srv.SetFollower(f)
	h := &host{ws: f.Workspaces(), f: f, stopF: cancel, ran: make(chan struct{})}
	go func() {
		_ = f.Run(ctx) // ends with ctx.Err() when the host closes
		close(h.ran)
	}()
	h.hs, h.url, err = serve(tr.wrap("server", srv, shadowFor(h.ws), missesFor(h.ws)))
	if err != nil {
		cancel()
		<-h.ran
		return nil, err
	}
	return h, nil
}

// hostRouter serves a router over the leader and follower.
func hostRouter(leader, follower *host, tr *tracer) (*host, error) {
	rt, err := replica.NewRouter(replica.RouterConfig{Backends: []string{leader.url, follower.url}})
	if err != nil {
		return nil, err
	}
	rt.Start()
	h := &host{rt: rt}
	h.hs, h.url, err = serve(tr.wrap("router", rt, nil, nil))
	if err != nil {
		rt.Close()
		return nil, err
	}
	// Reads reach the follower once a probe sweep has seen both members.
	deadline := time.Now().Add(catchUpTimeout)
	for follower.f.Applied() < leader.p.Seq() || !routerReady(h.url) {
		if time.Now().After(deadline) {
			h.close()
			return nil, fmt.Errorf("in-process router not ready after %v", catchUpTimeout)
		}
		time.Sleep(pollEvery)
	}
	return h, nil
}

func routerReady(url string) bool {
	c := newConn(url)
	defer c.close()
	var h struct {
		Backends []struct {
			Role  string `json:"role"`
			Ready bool   `json:"ready"`
		} `json:"backends"`
	}
	if _, err := c.getJSON("/api/health", &h); err != nil {
		return false
	}
	ready := 0
	for _, b := range h.Backends {
		if b.Ready && (b.Role == "leader" || b.Role == "follower") {
			ready++
		}
	}
	return ready == 2
}

// tenantOf resolves the workspace a request path addresses.
func tenantOf(ws *core.Workspaces, path string) (*core.System, string) {
	if rest, ok := strings.CutPrefix(path, "/api/t/"); ok {
		name, sub, _ := strings.Cut(rest, "/")
		sys, _ := ws.Get(name)
		return sys, "/api/" + sub
	}
	return ws.Default(), path
}

func missesFor(ws *core.Workspaces) func(r *http.Request) uint64 {
	return func(r *http.Request) uint64 {
		sys, _ := tenantOf(ws, r.URL.Path)
		if sys == nil {
			return 0
		}
		return sys.CacheStats().Misses
	}
}

// opClass names the op class of a request path.
func opClass(method, path string) string {
	if rest, ok := strings.CutPrefix(path, "/api/t/"); ok {
		_, sub, _ := strings.Cut(rest, "/")
		path = "/api/" + sub
	}
	switch {
	case path == "/api/import":
		return "import"
	case method != http.MethodGet:
		return opWrite
	case path == "/api/materials":
		return opPage
	case path == "/api/search":
		return opSearch
	case strings.HasSuffix(path, "/replacements"), path == "/api/coverage", path == "/api/gaps",
		path == "/api/similarity", path == "/api/suggest":
		return opAnalysis
	case strings.HasPrefix(path, "/api/materials/"):
		return opLookup
	}
	return "other"
}

// listingKey is the server's canonical filter key of an unfiltered
// listing, so a shadow page call shares the handler's sorted-listing memo.
var listingKey = strings.Join([]string{"", "", "", "", "0", "0", "", "", ""}, "\x1f")

// shadowFor maps a read request to the same kernel call on the request's
// workspace's current view. When the handler missed the result cache the
// shadow takes the uncached path where the core offers one, so the
// subtraction removes the work the handler really did.
func shadowFor(ws *core.Workspaces) shadowFunc {
	return func(r *http.Request, missed bool) func() {
		if r.Method != http.MethodGet {
			return nil
		}
		sys, path := tenantOf(ws, r.URL.Path)
		if sys == nil {
			return nil
		}
		v := sys.View()
		q := r.URL.Query()
		ctx := context.Background()
		switch {
		case path == "/api/materials":
			return func() { v.MaterialsPage(listingKey, nil, q.Get("after"), pageLimit) }
		case path == "/api/search":
			return func() { v.SearchText(q.Get("q"), 10) }
		case path == "/api/coverage":
			if missed {
				return func() { uncachedCoverage(v, q.Get("ontology"), q.Get("collection")) }
			}
			return func() { _, _ = v.CoverageCtx(ctx, q.Get("ontology"), q.Get("collection")) }
		case path == "/api/gaps":
			if missed {
				return func() {
					if rep := uncachedCoverage(v, q.Get("ontology"), q.Get("collection")); rep != nil {
						rep.Gaps(rep.Ontology.RootID())
					}
				}
			}
			return func() { _, _ = v.GapReportCtx(ctx, q.Get("ontology"), q.Get("collection"), false) }
		case path == "/api/similarity":
			if missed {
				return func() {
					_, _ = similarity.BuildBipartiteCtx(ctx, v.Materials(q.Get("left")), v.Materials(q.Get("right")), similarity.SharedCount, 2)
				}
			}
			return func() { _, _ = v.SimilarityGraphCtx(ctx, q.Get("left"), q.Get("right"), 2) }
		case path == "/api/suggest":
			if missed {
				return func() { _, _ = v.SuggestDirect("tfidf", "cs13", q.Get("q"), 5) }
			}
			return func() { _, _ = v.SuggestCtx(ctx, "tfidf", "cs13", q.Get("q"), 5) }
		case strings.HasSuffix(path, "/replacements"):
			id := strings.TrimSuffix(strings.TrimPrefix(path, "/api/materials/"), "/replacements")
			return func() { _, _ = v.PDCReplacements(id, 10) }
		case strings.HasPrefix(path, "/api/materials/"):
			id := strings.TrimPrefix(path, "/api/materials/")
			return func() { v.Material(id) }
		}
		return nil
	}
}

func uncachedCoverage(v *core.View, ont, collection string) *coverage.Report {
	o := v.OntologyByName(ont)
	if o == nil {
		return nil
	}
	rep, _ := coverage.ComputeCtx(context.Background(), o, collection, v.Materials(collection))
	return rep
}

// traced is the -trace 1 run: the timed run first, for its /proc and
// /api/health deltas, then the same layers hosted in this process with
// spans.
func (b *bench) traced(workload string) (*result, error) {
	m, err := b.measure(workloads[workload])
	if err != nil {
		return nil, err
	}
	res, err := m.result()
	if err != nil {
		return nil, err
	}
	dir, err := b.freshDir("trace")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	tr := newTracer()
	l := ledger{}
	for k, v := range m.layers.ledger() {
		l[k] = v
	}
	l.put("host.ref_ms", "ms", m.slowdown*ms(refNominal))
	l.put("ingest.import_mat_s", "mat/s", median(m.importMat))
	writes := m.all().samples[opWrite]
	if len(writes) == 0 {
		return nil, fmt.Errorf("no verified writes to report client.write_p50_ms")
	}
	l.put("client.write_p50_ms", "ms", median(writes))
	p99, err := tail(m.main.all(), 0.99)
	if err != nil {
		return nil, err
	}
	l.put("client.p99_ms", "ms", p99)
	rec, err := b.tracedRun(workload, dir, tr, l)
	if err != nil {
		return nil, err
	}
	if err := tr.write(filepath.Join(b.work, fmt.Sprintf("spans-%s-%d.json", workload, b.seed))); err != nil {
		return nil, err
	}
	all := newRecorder()
	all.merge(rec)
	return &result{
		Correct:   res.Correct && all.failed == 0,
		Attempted: res.Attempted + all.attempted,
		Failed:    res.Failed + all.failed,
		Metrics:   map[string]metric(l),
	}, nil
}

// tracedRun hosts the workload's layers in process, drives the same mix
// with request ids for a short closed loop, and times each layer.
func (b *bench) tracedRun(workload, dir string, tr *tracer, l ledger) (*recorder, error) {
	leader, err := hostLeader(filepath.Join(dir, "leader"), tr)
	if err != nil {
		return nil, err
	}
	defer leader.close()
	c := newConn(leader.url)
	defer c.close()
	if err := register(c, ""); err != nil {
		return nil, err
	}

	// The workload's corpus, loaded the way the timed run loads it, with
	// the heap growth per material measured around the load.
	var recs []ingest.Record
	var tenants []*curateTenant
	primary := ""
	heap0 := liveHeap()
	switch workload {
	case "browse":
		recs = withCollection(synth(browseCorpus, b.seed, "syn-"), "syn")
		err = loadBatches(c, "", recs)
	case "curate":
		tenants = b.curateTenants()
		recs = tenants[0].corpus
		primary = tenants[0].prefix
		err = loadTenants(c, tenants)
	}
	if err != nil {
		return nil, err
	}
	loaded := len(recs) * max(len(tenants), 1)
	l.put("mem.heap_bytes_per_mat", "B", float64(liveHeap()-heap0)/float64(loaded))
	sys := leader.ws.Default()
	if primary != "" {
		sys, _ = leader.ws.Get(strings.TrimPrefix(primary, "/t/"))
	}
	mats := make([]*material.Material, len(recs))
	for i, r := range recs {
		mats[i] = r.Material()
	}
	if err := structureLedger(sys, mats, l); err != nil {
		return nil, err
	}

	// The same closed loop twice on this deployment, for the same time:
	// first untraced (its requests carry no request id, so the wrap passes
	// them straight to the handler and makes no shadow call), then traced.
	// The untraced pass gives the cache and GC deltas, which shadow calls
	// would inflate, and the baseline of the tracing overhead.
	cs := dial(leader.url)
	defer closeAll(cs)
	step, err := b.tracedMix(workload, recs, tenants, cs[0])
	if err != nil {
		return nil, err
	}
	if err := createTenant(c, "traced-writes"); err != nil {
		return nil, err
	}
	if err := register(c, "/t/traced-writes"); err != nil {
		return nil, err
	}
	reqs := new(atomic.Int64)
	traced := make([]*conn, len(cs))
	for i, c := range cs {
		traced[i] = c.withTrace(tr, reqs)
	}
	// pass drives the loop, then posts into a workspace of their own so
	// that every workload has traced writes and the read mix's caches stay
	// warm for the next pass.
	pass := func(cs []*conn, seed int64) *recorder {
		rec, _ := closedLoop(cs, min(b.seconds, tracedSeconds), step)
		fresh := splitFresh(synth(conns*tracedPosts, seed, fmt.Sprintf("tw%d-", seed)), "posted")
		rec.merge(parallel(cs, func(ci int, c *conn, rec *recorder) {
			for _, r := range fresh[ci] {
				d, err := addOp(c, "/t/traced-writes", r)
				rec.record(opWrite, d, err)
			}
		}))
		return rec
	}
	cache0, gc0 := cacheTotals(leader.ws), gcCPU()
	base := pass(cs, b.seed+31)
	cache1, gc1 := cacheTotals(leader.ws), gcCPU()
	rec := pass(traced, b.seed+32)
	l.put("gc.cpu_frac", "1", (gc1[0]-gc0[0])/max(gc1[1]-gc0[1], 1e-9))
	hits, misses := cache1.Hits-cache0.Hits, cache1.Misses-cache0.Misses
	l.put("cache.hit_ratio", "1", float64(hits)/max(float64(hits+misses), 1))
	l.put("cache.misses", "count", float64(misses))
	l.put("cache.evictions", "count", float64(cache1.Evictions-cache0.Evictions))
	l.put("cache.analysis_reads", "count", float64(len(base.samples[opAnalysis])))
	for _, class := range opClasses {
		if xs, ys := rec.samples[class], base.samples[class]; len(xs) > 0 && len(ys) > 0 {
			l.put("trace.overhead_ms."+class, "ms", median(xs)-median(ys))
		}
	}
	spanLedger(tr.snapshot(), l)
	rec.merge(base)

	// Direct layer timings on the primary workspace.
	stage := time.Now()
	logStage := func(name string) {
		fmt.Fprintf(os.Stderr, "perfbench: traced %s took %.1fs\n", name, time.Since(stage).Seconds())
		stage = time.Now()
	}
	if err := kernelLedger(sys, leader.ws.Default(), recs, l); err != nil {
		return nil, err
	}
	logStage("kernels")
	if err := commitLedger(sys, recs, b.seed, l); err != nil {
		return nil, err
	}
	logStage("commits")
	if err := ingestLedger(leader.ws, b.seed, l); err != nil {
		return nil, err
	}
	logStage("ingest")
	if err := recoverLedger(filepath.Join(dir, "leader"), filepath.Join(dir, "copy"), l); err != nil {
		return nil, err
	}
	logStage("recover")
	if err := journalLedger(leader, l); err != nil {
		return nil, err
	}
	logStage("journal")
	// The replica layer is timed on a small seeded deployment of its
	// own: a follower bootstrapped from the workload's corpus would cost
	// the run as long again.
	replLeader, err := hostLeader(filepath.Join(dir, "replica"), tr)
	if err != nil {
		return nil, err
	}
	defer replLeader.close()
	rc := newConn(replLeader.url)
	err = register(rc, "")
	rc.close()
	if err != nil {
		return nil, err
	}
	var replRecs []ingest.Record
	for _, m := range corpus.AllMaterials() {
		replRecs = append(replRecs, ingest.FromMaterial(m))
	}
	follower, err := hostFollower(replLeader.url, tr)
	if err != nil {
		return nil, err
	}
	defer follower.close()
	router, err := hostRouter(replLeader, follower, tr)
	if err != nil {
		return nil, err
	}
	defer router.close()
	if err := replicaLedger(replLeader, follower, router, replRecs, b.seed, l); err != nil {
		return nil, err
	}
	logStage("replica")
	return rec, nil
}

// tracedMix prepares the workload's closed-loop step against the hosted
// layers and warms them as the timed run does. ingest, whose timed phase
// is mostly the read mix, runs it over what it imported.
func (b *bench) tracedMix(workload string, recs []ingest.Record, tenants []*curateTenant, warmConn *conn) (func(ci int, c *conn, rec *recorder), error) {
	rngs := []*rand.Rand{b.rng(1), b.rng(2)}
	if workload == "curate" {
		return func(ci int, c *conn, rec *recorder) { tenants[ci].step(c, rngs[ci], rec) }, nil
	}
	mix := newReadMix(recs)
	warm := newRecorder()
	mix.warm(warmConn, warm)
	if warm.failed > 0 {
		return nil, fmt.Errorf("traced warm-up: %s", warm.errs[0])
	}
	return func(ci int, c *conn, rec *recorder) { mix.step(c, rngs[ci], rec) }, nil
}
