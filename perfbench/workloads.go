package main

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"time"

	"carcs/internal/corpus"
	"carcs/internal/ingest"
)

// Corpus sizes. A run builds its deployment three times and SIGKILLs and
// restarts it once, and WAL replay costs about 1.6 ms per material at 10k,
// so the sizes are what fits 22 runs per workload in the run budget.
// browse's 5k distinct lookup URIs still overflow the server's 4096-entry
// result cache.
const (
	browseCorpus = 5000
	curateCorpus = 2500 // per tenant
)

// paperIDs are the ids of the three seeded paper collections.
func paperIDs() []string {
	var out []string
	for _, m := range corpus.AllMaterials() {
		out = append(out, m.ID)
	}
	return out
}

// withCollection stamps every record with collection name.
func withCollection(recs []ingest.Record, name string) []ingest.Record {
	for i := range recs {
		recs[i].Collection = name
	}
	return recs
}

// readMix is the instructor read traffic of the default workspace: ~50%
// lookups over the synthetic corpus, ~15% cursor pages, ~15% searches for
// title words and ~20% analysis over the paper's collections and the
// corpus, plus TF-IDF suggestions.
type readMix struct {
	ids        []string // synthetic ids, the lookup population
	collection string   // their collection
	listing    []string // every id in the workspace, sorted
	terms      []string
	texts      []string // suggestion inputs
	repl       []string // ids with PDC replacements to query
	an         []func(c *conn) (time.Duration, error)
}

func newReadMix(recs []ingest.Record) *readMix {
	m := &readMix{
		ids:        sortedIDs(recs),
		collection: recs[0].Collection,
		terms:      titleTerms(recs),
	}
	m.listing = union(m.ids, paperIDs())
	for i := 0; i < 16; i++ {
		m.texts = append(m.texts, recs[i].Description)
	}
	for _, mat := range corpus.ITCS3145().All() {
		m.repl = append(m.repl, mat.ID)
	}
	m.an = m.analyses()
	return m
}

// analyses is the fixed set of analysis reads; the warm-up runs every one
// of them, so while the workspace takes no writes each is served from the
// result cache.
func (m *readMix) analyses() []func(c *conn) (time.Duration, error) {
	var out []func(c *conn) (time.Duration, error)
	sizes := map[string]int{m.collection: len(m.ids)}
	for _, col := range corpus.Collections() {
		sizes[col.Name] = col.Len()
	}
	for _, ont := range []string{"cs13", "pdc12"} {
		for _, col := range []string{"nifty", "peachy", "itcs3145", m.collection} {
			out = append(out, func(c *conn) (time.Duration, error) { return coverageOp(c, "", ont, col, sizes[col]) })
		}
	}
	for _, g := range [][2]string{{"pdc12", "peachy"}, {"pdc12", "itcs3145"}, {"cs13", "nifty"}} {
		out = append(out, func(c *conn) (time.Duration, error) { return gapsOp(c, "", g[0], g[1]) })
	}
	for _, p := range [][2]string{{"nifty", "peachy"}, {"peachy", "itcs3145"}, {"nifty", "itcs3145"}} {
		out = append(out, func(c *conn) (time.Duration, error) { return similarityOp(c, "", p[0], p[1]) })
	}
	for _, id := range m.repl {
		out = append(out, func(c *conn) (time.Duration, error) { return replacementsOp(c, "", id) })
	}
	for _, t := range m.texts {
		out = append(out, func(c *conn) (time.Duration, error) { return suggestOp(c, "", t) })
	}
	return out
}

// step issues one op of the mix.
func (m *readMix) step(c *conn, rng *rand.Rand, rec *recorder) {
	switch x := rng.Float64(); {
	case x < 0.50:
		d, err := lookup(c, "", m.ids[rng.Intn(len(m.ids))])
		rec.record(opLookup, d, err)
	case x < 0.65:
		d, _, err := page(c, "", m.listing[rng.Intn(len(m.listing))], m.listing)
		rec.record(opPage, d, err)
	case x < 0.80:
		d, err := searchOp(c, "", m.terms[rng.Intn(len(m.terms))])
		rec.record(opSearch, d, err)
	default:
		d, err := m.an[rng.Intn(len(m.an))](c)
		rec.record(opAnalysis, d, err)
	}
}

// warm runs every analysis once, searches every term and walks the whole
// listing, filling the result cache and the sorted-listing memo before
// the timed phase. Its timings are discarded; its failures count in rec.
func (m *readMix) warm(c *conn, rec *recorder) {
	scratch := newRecorder()
	for _, f := range m.an {
		d, err := f(c)
		scratch.record(opAnalysis, d, err)
	}
	for _, t := range m.terms {
		d, err := searchOp(c, "", t)
		scratch.record(opSearch, d, err)
	}
	_ = walkListing(c, "", m.listing, scratch) // its failure is in scratch
	rec.countFailures(scratch)
}

// loop runs the mix on every connection for d.
func (m *readMix) loop(b *bench, cs []*conn, d time.Duration) (*recorder, time.Duration) {
	rngs := []*rand.Rand{b.rng(1), b.rng(2)}
	return b.sampledLoop(cs, d, func(ci int, c *conn, rec *recorder) { m.step(c, rngs[ci], rec) })
}

// postWrites is the length of the closed loop of posts browse runs after
// its read-only timed phase, so it reports write latency and its
// durability check covers acknowledged writes.
const postWrites = 3 * time.Second

func (b *bench) browse() (*measured, error) {
	recs := withCollection(synth(browseCorpus, b.seed, "syn-"), "syn")
	t, setupS, err := b.setups(setupRuns, func() (*topo, error) {
		t, err := b.launchLeader("browse")
		if err != nil {
			return nil, err
		}
		c := newConn(t.leader.url)
		defer c.close()
		if err := loadBatches(c, "", recs); err != nil {
			t.stop()
			return nil, err
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	defer t.stop()
	mix := newReadMix(recs)
	cs := dial(t.leader.url)
	defer closeAll(cs)
	m := &measured{setupS: setupS, extra: newRecorder()}
	mix.warm(cs[0], m.extra)

	probe := b.startProbe(t)
	m.main, m.elapsed = mix.loop(b, cs, b.seconds)
	m.layers.add(probe.stop(), m.main.ok())

	fresh := make([][]ingest.Record, conns)
	posted := make([][]string, conns)
	for i := range fresh {
		fresh[i] = withCollection(synth(maxPosts, b.seed+int64(5+i), fmt.Sprintf("post%d-", i)), "posted")
	}
	writes, _ := b.sampledLoop(cs, postWrites, func(ci int, c *conn, rec *recorder) {
		if len(fresh[ci]) == 0 {
			rec.fail(opWrite, fmt.Errorf("out of fresh materials"))
			return
		}
		r := fresh[ci][0]
		fresh[ci] = fresh[ci][1:]
		d, err := addOp(c, "", r)
		if rec.record(opWrite, d, err) {
			posted[ci] = append(posted[ci], r.ID)
		}
	})
	m.extra.merge(writes)
	want := mix.listing
	for _, p := range posted {
		want = union(want, p)
	}
	if err := b.crashCheck(t, m, map[string][]string{"": want}); err != nil {
		return nil, err
	}
	t.stop()
	return m, b.importCycles(m)
}

// maxPosts bounds how many materials one connection can post in a write
// phase; a connection completes far fewer.
const maxPosts = 6000

func union(a, b []string) []string {
	out := append(append([]string(nil), a...), b...)
	sort.Strings(out)
	return slices.Compact(out)
}

// crashCheck SIGKILLs the workload's leader after its timed phase,
// restarts it, and checks that every workspace in want (prefix -> sorted
// ids) holds exactly its acknowledged ids. A failed check is a failed op.
// The restart replays the whole run's log, so it is a check only: the
// recover_s samples come from importCycles. The killed process's peak RSS
// is the run's rss_mb.
func (b *bench) crashCheck(t *topo, m *measured, want map[string][]string) error {
	if _, err := b.crash(t); err != nil {
		return err
	}
	m.rssMB = append(m.rssMB, t.killMB)
	c := newConn(t.leader.url)
	defer c.close()
	check := newRecorder()
	for prefix, ids := range want {
		if err := walkListing(c, prefix, ids, check); err != nil {
			check.fail("durability", fmt.Errorf("workspace %q after SIGKILL: %w", prefix, err))
		}
	}
	m.extra.countFailures(check)
	return nil
}

// importCycles is the epilogue of browse and curate: importCycleRuns
// import-kill-restart cycles of epilogueImport materials, each on a fresh
// leader, for their recover_s and import-rate samples.
func (b *bench) importCycles(m *measured) error {
	for i := 0; i < importCycleRuns; i++ {
		if err := b.importCycle(m, importRecords(epilogueImport, importSeed(b.seed, i))); err != nil {
			return fmt.Errorf("import cycle %d: %w", i+1, err)
		}
	}
	return nil
}

// importSeed is the corpus seed of a run's i-th import cycle.
func importSeed(seed int64, i int) int64 { return seed*100 + int64(20+i) }

// curateTenant is one connection's workspace and what it knows about it.
type curateTenant struct {
	prefix  string
	corpus  []ingest.Record
	ids     []string // sorted ids the workspace holds
	fresh   []ingest.Record
	classes map[string][]string // last acknowledged classifications by id
	terms   []string
}

// curateTenants builds the two curators' workspaces and inputs.
func (b *bench) curateTenants() []*curateTenant {
	tenants := make([]*curateTenant, conns)
	for i := range tenants {
		recs := withCollection(synth(curateCorpus, b.seed+int64(1+i), fmt.Sprintf("c%d-", i)), "syn")
		tenants[i] = &curateTenant{
			prefix:  fmt.Sprintf("/t/cur%d", i),
			corpus:  recs,
			ids:     sortedIDs(recs),
			fresh:   withCollection(synth(maxPosts, b.seed+int64(11+i), fmt.Sprintf("n%d-", i)), "syn"),
			classes: map[string][]string{},
			terms:   titleTerms(recs),
		}
	}
	return tenants
}

// loadTenants creates, registers and loads every curator workspace.
func loadTenants(c *conn, tenants []*curateTenant) error {
	for _, ten := range tenants {
		if err := createTenant(c, strings.TrimPrefix(ten.prefix, "/t/")); err != nil {
			return err
		}
		if err := register(c, ten.prefix); err != nil {
			return err
		}
		if err := loadBatches(c, ten.prefix, ten.corpus); err != nil {
			return err
		}
	}
	return nil
}

func (b *bench) curate() (*measured, error) {
	tenants := b.curateTenants()
	t, setupS, err := b.setups(setupRuns, func() (*topo, error) {
		t, err := b.launchLeader("curate")
		if err != nil {
			return nil, err
		}
		c := newConn(t.leader.url)
		defer c.close()
		if err := loadTenants(c, tenants); err != nil {
			t.stop()
			return nil, err
		}
		return t, nil
	})
	if err != nil {
		return nil, err
	}
	defer t.stop()
	cs := dial(t.leader.url)
	defer closeAll(cs)
	m := &measured{setupS: setupS, extra: newRecorder()}
	rngs := []*rand.Rand{b.rng(1), b.rng(2)}
	step := func(ci int, c *conn, rec *recorder) { tenants[ci].step(c, rngs[ci], rec) }

	m.extra.countFailures(parallel(cs, step)) // warm-up: one untimed step each
	probe := b.startProbe(t)
	m.main, m.elapsed = b.sampledLoop(cs, b.seconds, step)
	m.layers.add(probe.stop(), m.main.ok())
	want := map[string][]string{}
	for _, ten := range tenants {
		want[ten.prefix] = ten.ids
	}
	if err := b.crashCheck(t, m, want); err != nil {
		return nil, err
	}
	// Every acknowledged reclassification survived the crash.
	m.extra.countFailures(parallel(cs, func(ci int, c *conn, rec *recorder) {
		ten := tenants[ci]
		for id, cls := range ten.classes {
			var got struct {
				Classifications []string `json:"classifications"`
			}
			_, err := c.getJSON("/api"+ten.prefix+"/materials/"+id, &got)
			if err == nil && !sameSet(got.Classifications, cls) {
				err = fmt.Errorf("%s/%s after SIGKILL: classifications %v, want %v", ten.prefix, id, got.Classifications, cls)
			}
			if err != nil {
				rec.fail("durability", err)
			}
		}
	}))
	t.stop()
	return m, b.importCycles(m)
}

// step is one curator step: suggest for a new text, post it, read it
// back, reclassify an existing material, then coverage, gaps, a cursor
// page and a search of the tenant. Every read after the writes runs on a
// just-published view, so it misses the result cache.
func (ten *curateTenant) step(c *conn, rng *rand.Rand, rec *recorder) {
	if len(ten.fresh) == 0 {
		rec.fail(opWrite, fmt.Errorf("%s: out of fresh materials", ten.prefix))
		return
	}
	nr := ten.fresh[0]
	ten.fresh = ten.fresh[1:]
	d, err := suggestOp(c, ten.prefix, nr.Title+" "+nr.Description)
	rec.record(opAnalysis, d, err)

	d, err = addOp(c, ten.prefix, nr)
	if rec.record(opWrite, d, err) {
		i := sort.SearchStrings(ten.ids, nr.ID)
		ten.ids = slices.Insert(ten.ids, i, nr.ID)
		d, err = lookup(c, ten.prefix, nr.ID) // read-your-write on this connection
		rec.record(opLookup, d, err)
	}

	target := ten.corpus[rng.Intn(len(ten.corpus))].ID
	cls := ten.corpus[rng.Intn(len(ten.corpus))].Classifications
	d, err = reclassifyOp(c, ten.prefix, target, cls)
	if rec.record(opWrite, d, err) {
		ten.classes[target] = cls
	}

	d, err = coverageOp(c, ten.prefix, "cs13", "syn", len(ten.ids))
	rec.record(opAnalysis, d, err)
	d, err = gapsOp(c, ten.prefix, "pdc12", "syn")
	rec.record(opAnalysis, d, err)
	d, _, err = page(c, ten.prefix, ten.ids[rng.Intn(len(ten.ids))], ten.ids)
	rec.record(opPage, d, err)
	d, err = searchOp(c, ten.prefix, ten.terms[rng.Intn(len(ten.terms))])
	rec.record(opSearch, d, err)
}

func sameSet(a, b []string) bool {
	a, b = slices.Clone(a), slices.Clone(b)
	slices.Sort(a)
	slices.Sort(b)
	return slices.Equal(a, b)
}

// importCycleRuns is how many import-kill-restart cycles one run makes;
// recover_s and the per-layer import rate are medians over them.
const importCycleRuns = 5

// importRecords is the input of one import: n synthetic records of
// collection "imported", every odd one unclassified, so the importer
// auto-classifies it or routes it to review.
func importRecords(n int, seed int64) []ingest.Record {
	recs := withCollection(synth(n, seed, "imp-"), "imported")
	for i := 1; i < len(recs); i += 2 {
		recs[i].Classifications = nil
	}
	return recs
}

// importCycle launches a fresh leader, imports recs into its default
// workspace, SIGKILLs it once the job is done and restarts it, then reads
// back what the import acknowledged; the listing must hold exactly those
// materials and the paper collections. It files the import rate and the
// recovery time in m, and failed checks in m.extra, and stops the leader.
func (b *bench) importCycle(m *measured, recs []ingest.Record) error {
	b.refSample()
	t, err := b.launchLeader("import")
	if err != nil {
		return err
	}
	defer t.stop()
	c := newConn(t.leader.url)
	defer c.close()
	sum, rate, err := importJSONL(c, "", recs)
	if err != nil {
		return err
	}
	m.importMat = append(m.importMat, rate)
	rs, err := b.crash(t)
	if err != nil {
		return err
	}
	m.recoverS = append(m.recoverS, rs)
	b.refSample()
	kept, check, err := readBack(c, recs, sum)
	if err != nil {
		return err
	}
	if err := walkListing(c, "", union(sortedIDs(kept), paperIDs()), check); err != nil {
		check.fail("durability", fmt.Errorf("listing after SIGKILL: %w", err))
	}
	m.extra.countFailures(check)
	return nil
}

// splitFresh stamps recs with collection and deals them out to the
// connections.
func splitFresh(recs []ingest.Record, collection string) [][]ingest.Record {
	withCollection(recs, collection)
	out := make([][]ingest.Record, conns)
	for i, r := range recs {
		out[i%conns] = append(out[i%conns], r)
	}
	return out
}

// readBack reads back what an import of recs (odd records unclassified)
// acknowledged: every classified record is a material; an unclassified
// one is a material if it was auto-classified, else a pending submission.
// It returns the records that are materials, in input order, and a
// recorder holding any mismatch as a failed op.
func readBack(c *conn, recs []ingest.Record, sum ingest.Summary) ([]ingest.Record, *recorder, error) {
	var pending []struct {
		Material struct {
			ID string `json:"id"`
		} `json:"material"`
	}
	if _, err := c.getJSON("/api/submissions", &pending); err != nil {
		return nil, nil, err
	}
	inReview := map[string]bool{}
	for _, p := range pending {
		inReview[p.Material.ID] = true
	}
	var present []ingest.Record
	check := newRecorder()
	for i, r := range recs {
		switch {
		case !inReview[r.ID]:
			present = append(present, r)
		case i%2 == 0:
			check.fail("durability", fmt.Errorf("classified record %s is in review", r.ID))
		}
	}
	if len(inReview) != sum.Review || len(present) != sum.Added {
		check.fail("durability", fmt.Errorf("%d materials and %d in review, the import acknowledged %d and %d",
			len(present), len(inReview), sum.Added, sum.Review))
	}
	return present, check, nil
}
