// Command perfbench is the end-to-end benchmark of CAR-CS. It starts real
// carcs-server processes with their default flags on fresh data
// directories, drives one workload from a closed loop of two connections,
// checks every response, and prints the metrics as the last line of
// standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 1 it instead hosts the same layers inside its own process
// and reports the per-layer ledger (see trace.go).
//
// Run it through run.sh, which builds the server and this program from
// source first:
//
//	bash perfbench/run.sh --workload browse --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"sync"
	"time"
)

// conns is the closed loop's concurrency: one load process, two
// connections, on a two-core host.
const conns = 2

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench holds one run's settings.
type bench struct {
	server  string // carcs-server binary
	work    string // scratch root for data directories
	seed    int64
	seconds time.Duration
	trace   bool // a traced run: its timed phase also polls the limiter queue
	ref     *hostRef
	refErr  error
}

func main() {
	workload := flag.String("workload", "", "browse or curate")
	seed := flag.Int64("seed", 1, "input seed: the same seed gives the same corpus and op sequence")
	seconds := flag.Float64("seconds", 10, "length of the timed closed-loop phase")
	trace := flag.Int("trace", 0, "1 = traced in-process run reporting per-layer metrics")
	server := flag.String("server", "", "carcs-server binary")
	work := flag.String("work", "", "scratch directory for data directories and span files")
	flag.Parse()

	// The load generator may use at most the host's two cores, and
	// collects garbage less often than the default so its own GC steals
	// less of the CPU the servers run on; its heap stays small either way.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), conns))
	debug.SetGCPercent(400)

	run, ok := workloads[*workload]
	if !ok || *server == "" || *work == "" {
		fmt.Fprintf(os.Stderr, "perfbench: need -server, -work and -workload (one of %s)\n",
			strings.Join(workloadNames(), ", "))
		os.Exit(2)
	}
	b := &bench{server: *server, work: *work, seed: *seed,
		seconds: time.Duration(*seconds * float64(time.Second)), trace: *trace == 1}
	if err := os.MkdirAll(b.work, 0o755); err != nil {
		fatal(err)
	}
	var err error
	if b.ref, err = newHostRef(); err != nil {
		fatal(err)
	}
	defer b.ref.close()

	var res *result
	if *trace == 1 {
		res, err = b.traced(*workload)
	} else {
		var m *measured
		if m, err = b.measure(run); err == nil {
			res, err = m.result()
		}
	}
	if err == nil {
		err = b.refErr
	}
	if err != nil {
		fatal(err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

// measure runs one workload and files the host's slowdown over the run.
func (b *bench) measure(run func(b *bench) (*measured, error)) (*measured, error) {
	m, err := run(b)
	if err != nil {
		return nil, err
	}
	m.slowdown = b.ref.slowdown()
	return m, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// workloads maps each workload name to its run; README.md says why each
// exists.
var workloads = map[string]func(b *bench) (*measured, error){
	"browse": (*bench).browse,
	"curate": (*bench).curate,
}

func workloadNames() []string {
	var out []string
	for k := range workloads {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// freshDir makes a new, empty data directory under the scratch root.
func (b *bench) freshDir(tag string) (string, error) {
	return os.MkdirTemp(b.work, tag+"-")
}

// rng is a generator derived from the run seed and a stream number, so
// each connection's op sequence is reproducible on its own.
func (b *bench) rng(stream int64) *rand.Rand {
	return rand.New(rand.NewSource(b.seed*1000003 + stream))
}

// closedLoop runs step on every connection for d; each connection issues
// its next op only after the previous one completed. It returns the
// merged recorder and the phase's wall time.
func closedLoop(cs []*conn, d time.Duration, step func(ci int, c *conn, rec *recorder)) (*recorder, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	rec := parallel(cs, func(ci int, c *conn, rec *recorder) {
		for time.Now().Before(deadline) {
			step(ci, c, rec)
		}
	})
	return rec, time.Since(start)
}

// sampledLoop is closedLoop in slices of refEvery, with a reference
// sample before each slice and after the last. It returns the merged
// recorder and the slices' summed wall time.
func (b *bench) sampledLoop(cs []*conn, d time.Duration, step func(ci int, c *conn, rec *recorder)) (*recorder, time.Duration) {
	all := newRecorder()
	var elapsed time.Duration
	for left := d; left > 0; left -= refEvery {
		b.refSample()
		rec, e := closedLoop(cs, min(left, refEvery), step)
		all.merge(rec)
		elapsed += e
	}
	b.refSample()
	return all, elapsed
}

// refEvery is how long the closed loop runs between reference samples.
const refEvery = time.Second

// refSample takes one reference sample with every server process
// paused; the first error is kept and fails the run.
func (b *bench) refSample() {
	resume, err := pauseServers()
	if err == nil {
		err = b.ref.sample()
		resume()
	}
	if err != nil && b.refErr == nil {
		b.refErr = err
	}
}

// parallel runs fn once per connection, each with its own recorder, and
// returns their merge once all have returned.
func parallel(cs []*conn, fn func(ci int, c *conn, rec *recorder)) *recorder {
	recs := make([]*recorder, len(cs))
	var wg sync.WaitGroup
	for i, c := range cs {
		recs[i] = newRecorder()
		wg.Add(1)
		go func(i int, c *conn) {
			defer wg.Done()
			fn(i, c, recs[i])
		}(i, c)
	}
	wg.Wait()
	all := newRecorder()
	for _, r := range recs {
		all.merge(r)
	}
	return all
}

func dial(url string) []*conn {
	cs := make([]*conn, conns)
	for i := range cs {
		cs[i] = newConn(url)
	}
	return cs
}

func closeAll(cs []*conn) {
	for _, c := range cs {
		c.close()
	}
}

// measured is one workload run's raw figures. main holds the timed ops:
// their rate over elapsed is ops_s and their latencies give the p50s and
// p99. extra holds ops outside the timed phase — warm-up, read-back
// checks (failures only), and browse's write phase, whose latencies give
// its write p50.
type measured struct {
	main      *recorder
	elapsed   time.Duration
	extra     *recorder
	setupS    []float64
	importMat []float64 // materials per second of each import, unscaled
	recoverS  []float64
	rssMB     []float64
	layers    layerProbe
	slowdown  float64 // the host's, from the reference samples
}

// readClasses are the op classes whose p50 is an end-to-end metric.
// Write latency and the tail are per-layer figures of the traced run
// (client.write_p50_ms, client.p99_ms): README.md says why.
var readClasses = []string{opLookup, opPage, opSearch, opAnalysis}

// all merges the timed ops with every op outside the timed phase.
func (m *measured) all() *recorder {
	all := newRecorder()
	all.merge(m.main)
	all.merge(m.extra)
	return all
}

func (m *measured) result() (*result, error) {
	all := m.all()
	res := &result{
		Correct:   all.failed == 0,
		Attempted: all.attempted,
		Failed:    all.failed,
		Metrics:   map[string]metric{},
	}
	for _, e := range all.errs {
		fmt.Fprintln(os.Stderr, "perfbench: failed op:", e)
	}
	raw := map[string]float64{}
	put := func(name, unit string, v float64) { res.Metrics[name] = metric{Value: v, Unit: unit} }
	// A duration is divided by the host's slowdown, a rate multiplied.
	dur := func(name, unit string, v float64) { raw[name] = v; put(name, unit, v/m.slowdown) }
	rate := func(name, unit string, v float64) { raw[name] = v; put(name, unit, v*m.slowdown) }
	dur("setup_s", "s", median(m.setupS))
	rate("ops_s", "ops/s", float64(m.main.ok())/m.elapsed.Seconds())
	for _, class := range readClasses {
		xs := all.samples[class]
		if len(xs) == 0 {
			return nil, fmt.Errorf("no verified %s ops to report %s_p50_ms", class, class)
		}
		dur(class+"_p50_ms", "ms", median(xs))
	}
	dur("recover_s", "s", median(m.recoverS))
	put("rss_mb", "MB", median(m.rssMB))
	rawJSON, _ := json.Marshal(raw)
	fmt.Fprintf(os.Stderr, "perfbench: host slowdown %.4f; unscaled %s\n", m.slowdown, rawJSON)
	for name, v := range res.Metrics {
		if v.Value <= 0 || v.Value != v.Value {
			return nil, fmt.Errorf("metric %s is %v", name, v.Value)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d verified ops in the timed phase, %d attempted in all\n",
		m.main.ok(), all.attempted)
	return res, nil
}
