package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"carcs/internal/classify"
	"carcs/internal/core"
	"carcs/internal/corpus"
	"carcs/internal/ingest"
	"carcs/internal/journal"
	"carcs/internal/learn"
	"carcs/internal/material"
	"carcs/internal/relstore"
	"carcs/internal/search"
	"carcs/internal/textproc"
)

// liveHeap is the heap in use after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// bytesPerMat is the live-heap growth of build, divided by n.
func bytesPerMat(n int, build func() any) float64 {
	h0 := liveHeap()
	v := build()
	h1 := liveHeap()
	runtime.KeepAlive(v)
	if h1 < h0 {
		return 0
	}
	return float64(h1-h0) / float64(n)
}

// structureLedger rebuilds each in-memory structure of the core from its
// package's public constructor over the workload's corpus and reports its
// live bytes per material. The relstore copy holds every table and link
// of the workspace, the ontology entries included.
func structureLedger(sys *core.System, mats []*material.Material, l ledger) error {
	n := len(mats)
	cs13, pdc12 := sys.CS13(), sys.PDC12()
	var copyErr error
	l.put("mem.relstore_bytes_per_mat", "B", bytesPerMat(n, func() any {
		src := sys.Store()
		st := relstore.NewStore()
		for _, name := range src.TableNames() {
			t, err := st.CreateTable(src.Table(name).Schema())
			if err == nil {
				// Clone the rows: Select hands out the stored maps.
				rows := src.Table(name).Select(relstore.Query{})
				for i, r := range rows {
					rows[i] = maps.Clone(r)
				}
				_, err = t.InsertBatch(rows)
			}
			if err != nil {
				copyErr = fmt.Errorf("copy relstore table %s: %w", name, err)
				return st
			}
		}
		for _, name := range src.LinkNames() {
			cp, err := st.CreateLink(name, "", "")
			if err != nil {
				copyErr = fmt.Errorf("copy relstore link %s: %w", name, err)
				return st
			}
			cp.AddBatch(src.Link(name).Pairs())
		}
		return st
	}))
	if copyErr != nil {
		return copyErr
	}
	l.put("mem.search_bytes_per_mat", "B", bytesPerMat(n, func() any {
		e := search.NewEngine(cs13, pdc12)
		for _, m := range mats {
			e.Add(m)
		}
		return e
	}))
	l.put("mem.tfidf_bytes_per_mat", "B", bytesPerMat(n, func() any {
		c := textproc.NewCorpus()
		for _, m := range mats {
			c.Add(m.ID, m.SearchText())
		}
		c.Finalize()
		return c
	}))
	l.put("mem.bayes_bytes_per_mat", "B", bytesPerMat(n, func() any {
		b := classify.NewBayes(cs13)
		b.TrainAll(mats)
		return b
	}))
	l.put("mem.cooccur_bytes_per_mat", "B", bytesPerMat(n, func() any {
		return classify.NewCoOccurrence(mats)
	}))
	// Training with cross-validated calibration takes minutes at 10k, so
	// the learned model is built from a fixed-size sample.
	sample := mats[:min(n, learnSample)]
	l.put("mem.learned_bytes_per_mat", "B", bytesPerMat(len(sample), func() any {
		return learn.Train(cs13, learn.ExamplesFromMaterials(cs13, sample), learn.DefaultParams())
	}))
	return nil
}

// learnSample is how many materials the learned-weights ledger trains on.
const learnSample = 500

// timeReps returns the median milliseconds of reps calls of f, running
// prep (untimed) before each.
func timeReps(reps int, prep func(i int) error, f func(i int) error) (float64, error) {
	var xs []float64
	for i := 0; i < reps; i++ {
		if prep != nil {
			if err := prep(i); err != nil {
				return 0, err
			}
		}
		start := time.Now()
		if err := f(i); err != nil {
			return 0, err
		}
		xs = append(xs, ms(time.Since(start)))
	}
	return median(xs), nil
}

// kernelLedger times each view kernel directly on the primary workspace
// twice: on a warm view whose caches the same call already filled (the
// browse case), and on a view published just before the call (the curate
// case). Similarity runs on the default workspace's paper collections.
func kernelLedger(sys, def *core.System, recs []ingest.Record, l ledger) error {
	ctx := context.Background()
	ids := sortedIDs(recs)
	terms := titleTerms(recs)
	col := recs[0].Collection
	text := recs[0].Title + " " + recs[0].Description
	// publish commits a reclassification that changes nothing but the
	// generation: of a corpus material on the primary workspace, of a
	// paper material on the default one.
	paper := corpus.ITCS3145().All()[0]
	mid := recs[len(recs)/2].Material()
	publish := func(s *core.System) error {
		if s == sys {
			return s.Reclassify(mid.ID, mid.Classifications)
		}
		return s.Reclassify(paper.ID, paper.Classifications)
	}
	kernels := []struct {
		name, unit string
		scale      float64
		sys        *core.System
		f          func(v *core.View, i int) error
	}{
		{"lookup_us", "us", 1000, sys, func(v *core.View, i int) error {
			if v.Material(ids[i%len(ids)]) == nil {
				return fmt.Errorf("kernel lookup: %s missing", ids[i%len(ids)])
			}
			return nil
		}},
		{"page_ms", "ms", 1, sys, func(v *core.View, i int) error {
			v.MaterialsPage(listingKey, nil, ids[(i*37)%len(ids)], pageLimit)
			return nil
		}},
		{"search_ms", "ms", 1, sys, func(v *core.View, i int) error {
			v.SearchText(terms[i%len(terms)], 10)
			return nil
		}},
		{"coverage_ms", "ms", 1, sys, func(v *core.View, i int) error {
			_, err := v.CoverageCtx(ctx, "cs13", col)
			return err
		}},
		{"gaps_ms", "ms", 1, sys, func(v *core.View, i int) error {
			_, err := v.GapReportCtx(ctx, "pdc12", col, false)
			return err
		}},
		{"similarity_ms", "ms", 1, def, func(v *core.View, i int) error {
			_, err := v.SimilarityGraphCtx(ctx, "peachy", "itcs3145", 2)
			return err
		}},
		{"suggest_ms", "ms", 1, sys, func(v *core.View, i int) error {
			_, err := v.SuggestCtx(ctx, "tfidf", "cs13", text, 5)
			return err
		}},
	}
	for _, k := range kernels {
		// Warm: the same view, caches filled by an untimed first call.
		v := k.sys.View()
		if err := k.f(v, 0); err != nil {
			return err
		}
		warm, err := timeReps(kernelReps, nil, func(int) error { return k.f(v, 0) })
		if err != nil {
			return err
		}
		// Fresh: a durable reclassification publishes a new view first.
		var fv *core.View
		fresh, err := timeReps(kernelReps, func(int) error {
			if err := publish(k.sys); err != nil {
				return err
			}
			fv = k.sys.View()
			return nil
		}, func(i int) error { return k.f(fv, i) })
		if err != nil {
			return err
		}
		l.put("core."+k.name+".warm", k.unit, warm*k.scale)
		l.put("core."+k.name+".fresh", k.unit, fresh*k.scale)
	}
	return nil
}

// commitLedger times durable commits (journal, fsync, publish) on the
// primary workspace and the same calls on an in-memory System holding the
// same corpus; the difference is the journal's share.
func commitLedger(sys *core.System, recs []ingest.Record, seed int64, l ledger) error {
	mem, err := core.New()
	if err != nil {
		return err
	}
	mats := make([]*material.Material, len(recs))
	for i, r := range recs {
		mats[i] = r.Material()
	}
	if err := mem.AddMaterials(mats); err != nil {
		return err
	}
	fresh := synth(2*kernelReps, seed+99, "commit-")
	commit := func(s *core.System, prefix string) (float64, error) {
		return timeReps(2*kernelReps, nil, func(i int) error {
			r := fresh[i]
			if i%2 == 0 {
				m := r.Material()
				m.ID = prefix + m.ID
				return s.AddMaterial(m)
			}
			cls := make([]material.Classification, 0, len(r.Classifications))
			for _, c := range r.Classifications {
				cls = append(cls, material.Classification{NodeID: c})
			}
			return s.Reclassify(recs[i].ID, cls)
		})
	}
	gen0 := sys.Generation()
	durable, err := commit(sys, "d-")
	if err != nil {
		return err
	}
	l.put("core.publishes_per_write", "1", float64(sys.Generation()-gen0)/float64(2*kernelReps))
	inMem, err := commit(mem, "m-")
	if err != nil {
		return err
	}
	l.put("core.commit_ms", "ms", durable)
	l.put("core.commit_mem_ms", "ms", inMem)
	return nil
}

// ingestLedger runs Importer.Run in process on the JSONL of the timed
// run's first import cycle, into a fresh workspace of the durable leader.
func ingestLedger(ws *core.Workspaces, seed int64, l ledger) error {
	sys, _, err := ws.Create("ledger-import")
	if err != nil {
		return err
	}
	recs := importRecords(epilogueImport, importSeed(seed, 0))
	body := jsonl(recs)
	start := time.Now()
	sum, err := ingest.New(sys, ingest.Options{Method: "tfidf"}).Run(context.Background(), bytes.NewReader(body), nil)
	if err != nil {
		return err
	}
	if sum.Total != len(recs) || sum.Failed != 0 {
		return fmt.Errorf("in-process import: %+v", sum)
	}
	l.put("ingest.run_mat_s", "mat/s", float64(len(recs))/time.Since(start).Seconds())
	return nil
}

// recoverLedger copies the leader's journal directory as a crash would
// leave it and times the three recovery stages on the copy.
func recoverLedger(src, dst string, l ledger) error {
	if err := copyDir(src, dst); err != nil {
		return err
	}
	start := time.Now()
	st, err := journal.Open(dst, nil)
	if err != nil {
		return err
	}
	defer st.Close()
	payload, _, _, ok, err := st.CheckpointWithMeta()
	if err != nil || !ok {
		return fmt.Errorf("recover: checkpoint ok=%v: %v", ok, err)
	}
	l.put("recover.read_ms", "ms", ms(time.Since(start)))
	start = time.Now()
	ws, err := core.RestoreWorkspaces(payload)
	if err != nil {
		return err
	}
	l.put("recover.restore_ms", "ms", ms(time.Since(start)))
	start = time.Now()
	var chunk []journal.Record
	n, err := st.Replay(func(rec journal.Record) error {
		chunk = append(chunk, rec)
		if len(chunk) >= 256 {
			err := core.ApplyRecordsWorkspaces(ws, chunk)
			chunk = chunk[:0]
			return err
		}
		return nil
	})
	if err == nil {
		err = core.ApplyRecordsWorkspaces(ws, chunk)
	}
	if err != nil {
		return err
	}
	l.put("recover.replay_ms", "ms", ms(time.Since(start)))
	l.put("recover.replayed_records", "count", float64(n))
	return nil
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		in, err := os.Open(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		out, err := os.Create(filepath.Join(dst, e.Name()))
		if err == nil {
			_, err = io.Copy(out, in)
			if cerr := out.Close(); err == nil {
				err = cerr
			}
		}
		in.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// journalLedger reports group-commit batching and on-disk bytes per
// material, then times checkpoints.
func journalLedger(h *host, l ledger) error {
	mats := 0
	h.ws.Each(func(_ string, s *core.System) { mats += s.Len() })
	st := h.p.Stats()
	l.put("journal.records_per_fsync", "1", float64(st.BatchRecords)/float64(max(st.Batches, 1)))
	l.put("journal.wal_bytes_per_mat", "B", float64(st.WALBytes)/float64(mats))
	ckpt, err := timeReps(3, nil, func(int) error { return h.p.Checkpoint() })
	if err != nil {
		return err
	}
	l.put("journal.checkpoint_ms", "ms", ckpt)
	l.put("journal.checkpoint_bytes_per_mat", "B", float64(h.p.Stats().CheckpointBytes)/float64(mats))
	return nil
}

// replicaLedger times the router hop (the same lookup through the router
// and straight to the follower) and the follower's apply lag (write
// acknowledged by the leader until the follower has applied its seq).
func replicaLedger(leader, follower, router *host, recs []ingest.Record, seed int64, l ledger) error {
	viaRouter, direct := newConn(router.url), newConn(follower.url)
	defer viaRouter.close()
	defer direct.close()
	var hop []float64
	for i := 0; i < 200; i++ {
		id := recs[(i*7919)%len(recs)].ID
		dr, err := lookup(viaRouter, "", id)
		if err != nil {
			return err
		}
		dd, err := lookup(direct, "", id)
		if err != nil {
			return err
		}
		hop = append(hop, ms(dr-dd))
	}
	l.put("replica.router_hop_ms", "ms", median(hop))

	c := newConn(leader.url)
	defer c.close()
	if err := createTenant(c, "ledger-lag"); err != nil {
		return err
	}
	if err := register(c, "/t/ledger-lag"); err != nil {
		return err
	}
	fresh := synth(kernelReps, seed+77, "lag-")
	var lag []float64
	for _, r := range fresh {
		if _, err := addOp(c, "/t/ledger-lag", r); err != nil {
			return err
		}
		acked, seq := time.Now(), leader.p.Seq()
		deadline := acked.Add(catchUpTimeout)
		for follower.f.Applied() < seq {
			if time.Now().After(deadline) {
				return fmt.Errorf("follower stuck below seq %d", seq)
			}
			time.Sleep(50 * time.Microsecond)
		}
		lag = append(lag, ms(time.Since(acked)))
	}
	l.put("replica.apply_lag_ms", "ms", median(lag))
	return nil
}

// cacheTotals sums the result-cache counters of every workspace.
func cacheTotals(ws *core.Workspaces) (t struct{ Hits, Misses, Evictions uint64 }) {
	ws.Each(func(_ string, s *core.System) {
		st := s.CacheStats()
		t.Hits += st.Hits
		t.Misses += st.Misses
		t.Evictions += st.Evictions
	})
	return t
}

// gcCPU returns the process's GC CPU seconds and total CPU seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// spanLedger turns the traced loop's spans into per-op medians: the
// network share (client span minus everything it covers) and the server
// share (server span minus the kernel call it made). No shadow call can
// repeat a write, so a write's server span keeps its durable commit and
// is reported under its own name; core.commit_ms is the commit alone.
func spanLedger(spans []span, l ledger) {
	self := selfTimes(spans)
	net, srv := map[string][]float64{}, map[string][]float64{}
	for _, s := range spans {
		layer, class, _ := strings.Cut(s.Name, ".")
		switch layer {
		case "client":
			net[class] = append(net[class], ms(self[s.ID]))
		case "server":
			srv[class] = append(srv[class], ms(self[s.ID]))
		}
	}
	for _, class := range opClasses {
		if xs := net[class]; len(xs) > 0 {
			l.put("net.rtt_ms."+class, "ms", median(xs))
		}
		name := "server.self_ms." + class
		if class == opWrite {
			name = "server.write_incl_commit_ms"
		}
		if xs := srv[class]; len(xs) > 0 {
			l.put(name, "ms", median(xs))
		}
	}
}
