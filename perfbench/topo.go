package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"time"

	"carcs/internal/ingest"
)

// Timeouts for set-up steps; each is far above what the step takes, so
// only a hung server trips one.
const (
	readyTimeout   = 120 * time.Second
	jobTimeout     = 120 * time.Second
	catchUpTimeout = 60 * time.Second // in-process follower and router
	pollEvery      = 5 * time.Millisecond
)

// topo is one running deployment: a durable leader on its own data
// directory.
type topo struct {
	dir    string
	leader *serverProc
	killMB float64 // peak RSS the leader reached before the last crash killed it
}

func (t *topo) procs() []*serverProc {
	if t.leader == nil {
		return nil
	}
	return []*serverProc{t.leader}
}

// peakRSS sums the peak resident sets of every server process.
func (t *topo) peakRSS() (float64, error) {
	var sum float64
	for _, p := range t.procs() {
		mb, err := peakRSSMB(p.pid())
		if err != nil {
			return 0, err
		}
		sum += mb
	}
	return sum, nil
}

// stop kills every process, waits for them, and deletes the data.
func (t *topo) stop() {
	if t == nil {
		return
	}
	for _, p := range t.procs() {
		p.kill()
	}
	_ = os.RemoveAll(t.dir) // scratch data; a leftover only costs disk
}

// launchLeader starts a durable server on a fresh data directory and
// registers the benchmark's editor account in its default workspace.
func (b *bench) launchLeader(tag string) (*topo, error) {
	dir, err := b.freshDir(tag)
	if err != nil {
		return nil, err
	}
	t := &topo{dir: dir}
	t.leader, err = startServer(b.server, "-data", filepath.Join(dir, "leader"))
	if err == nil {
		err = t.leader.waitReady(readyTimeout)
	}
	if err == nil {
		c := newConn(t.leader.url)
		err = register(c, "")
		c.close()
	}
	if err != nil {
		t.stop()
		return nil, err
	}
	return t, nil
}

// setups builds the workload's deployment n times from scratch and keeps
// the last one. Each build is timed from launch to ready with the corpus
// loaded; the median is setup_s.
func (b *bench) setups(n int, build func() (*topo, error)) (*topo, []float64, error) {
	var times []float64
	var t *topo
	for i := 0; i < n; i++ {
		t.stop()
		start := time.Now()
		var err error
		t, err = build()
		if err != nil {
			return nil, nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		times = append(times, time.Since(start).Seconds())
		b.refSample()
	}
	return t, times, nil
}

// setupRuns is how many times a run builds its deployment; the median
// damps a single slow start.
const setupRuns = 3

// jobState is the part of GET /api/jobs/{id} the benchmark reads.
type jobState struct {
	State  string         `json:"state"`
	Error  string         `json:"error"`
	Result ingest.Summary `json:"result"`
}

// importJSONL submits recs to POST /api/import in the workspace under
// prefix and polls the job until it finishes. It returns the summary and
// the materials-per-second rate from submission to observed completion.
func importJSONL(c *conn, prefix string, recs []ingest.Record) (ingest.Summary, float64, error) {
	body := jsonl(recs)
	start := time.Now()
	var sub struct {
		Job int64 `json:"job"`
	}
	if _, err := c.send(http.MethodPost, "/api"+prefix+"/import?method=tfidf", body,
		"application/x-ndjson", &sub, http.StatusAccepted); err != nil {
		return ingest.Summary{}, 0, err
	}
	deadline := start.Add(jobTimeout)
	for {
		var js jobState
		if _, err := c.getJSON(fmt.Sprintf("/api/jobs/%d", sub.Job), &js); err != nil {
			return ingest.Summary{}, 0, err
		}
		switch js.State {
		case "done":
			rate := float64(len(recs)) / time.Since(start).Seconds()
			if js.Result.Total != len(recs) || js.Result.Failed != 0 {
				return js.Result, rate, fmt.Errorf("import: %+v for %d records", js.Result, len(recs))
			}
			return js.Result, rate, nil
		case "failed", "cancelled":
			return js.Result, 0, fmt.Errorf("import job %s: %s", js.State, js.Error)
		}
		if time.Now().After(deadline) {
			return js.Result, 0, fmt.Errorf("import job still %s after %v", js.State, jobTimeout)
		}
		time.Sleep(pollEvery)
	}
}

// epilogueImport is the size of each import in browse's and curate's
// import cycles.
const epilogueImport = 2000

// crash SIGKILLs the leader, restarts it on the same directory and port,
// and returns the seconds from the kill until it answers ready. It keeps
// the killed process's peak RSS in t.killMB.
func (b *bench) crash(t *topo) (float64, error) {
	var err error
	if t.killMB, err = t.peakRSS(); err != nil {
		return 0, err
	}
	start := time.Now()
	t.leader.kill()
	if err := t.leader.restart(b.server); err != nil {
		return 0, err
	}
	if err := t.leader.waitReady(readyTimeout); err != nil {
		return 0, err
	}
	return time.Since(start).Seconds(), nil
}

func sortedIDs(recs []ingest.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	sort.Strings(out)
	return out
}
