package main

import (
	"fmt"
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie above a reported tail
// percentile; with fewer, the percentile is an artefact of one or two
// outliers and is not reported.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of xs and
// how many samples lie strictly beyond it. xs need not be sorted.
func percentile(xs []float64, q float64) (value float64, beyond int) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	idx := int(math.Ceil(q*float64(len(s)))) - 1
	idx = max(0, min(idx, len(s)-1))
	v := s[idx]
	n := len(s) - sort.Search(len(s), func(i int) bool { return s[i] > v })
	return v, n
}

// tail returns the q-quantile of xs, or an error when fewer than
// minBeyond samples lie beyond it.
func tail(xs []float64, q float64) (float64, error) {
	v, beyond := percentile(xs, q)
	if beyond < minBeyond {
		return 0, fmt.Errorf("p%g over %d samples has %d beyond it, need %d",
			100*q, len(xs), beyond, minBeyond)
	}
	return v, nil
}

// median of xs (mean of the middle two for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// recorder collects one load phase's per-class latencies and op counts.
// Each connection owns one; merge combines them after the phase.
type recorder struct {
	samples   map[string][]float64 // op class -> latency in ms
	attempted int
	failed    int
	errs      []string
}

func newRecorder() *recorder { return &recorder{samples: map[string][]float64{}} }

// maxLoggedErrs bounds how many failure messages one run keeps for its
// diagnostic output.
const maxLoggedErrs = 5

// record counts one attempted op of class. A nil err files its latency;
// a failed check counts the op as failed and its latency is dropped, so a
// failure can never improve a latency figure.
func (r *recorder) record(class string, d time.Duration, err error) bool {
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.errs) < maxLoggedErrs {
			r.errs = append(r.errs, class+": "+err.Error())
		}
		return false
	}
	r.samples[class] = append(r.samples[class], ms(d))
	return true
}

// fail counts a check that is not an op of its own (a durability or
// replication read-back) as a failed op.
func (r *recorder) fail(what string, err error) { r.record(what, 0, err) }

func (r *recorder) merge(o *recorder) {
	for k, v := range o.samples {
		r.samples[k] = append(r.samples[k], v...)
	}
	r.attempted += o.attempted
	r.failed += o.failed
	for _, e := range o.errs {
		if len(r.errs) < maxLoggedErrs {
			r.errs = append(r.errs, e)
		}
	}
}

// countFailures adds o's op counts and failures but not its latencies:
// for warm-up passes and read-back checks, whose timings are not metrics.
func (r *recorder) countFailures(o *recorder) {
	lat := o.samples
	o.samples = nil
	r.merge(o)
	o.samples = lat
}

// ok is the number of verified ops.
func (r *recorder) ok() int { return r.attempted - r.failed }

// all returns every verified latency across classes.
func (r *recorder) all() []float64 {
	var out []float64
	for _, v := range r.samples {
		out = append(out, v...)
	}
	return out
}
