package main

import (
	"syscall"
	"time"
)

// probeSnap is what the timed run reads from outside the servers before
// and after a timed phase: process CPU from /proc and getrusage, and the
// admission counters of /api/health.
type probeSnap struct {
	serverCPU, clientCPU float64 // seconds
	admitted, shed       float64
}

// probeDelta is one timed phase's counter deltas and the peak limiter
// queue length polled while it ran.
type probeDelta struct {
	probeSnap
	queuedPeak float64
}

// layerProbe accumulates probe deltas over a run's timed phases.
type layerProbe struct {
	d   probeDelta
	ops int
}

// snapProbe reads the counters of every server process of t.
func snapProbe(t *topo) probeSnap {
	var s probeSnap
	for _, p := range t.procs() {
		if cpu, err := cpuSeconds(p.pid()); err == nil {
			s.serverCPU += cpu
		}
		if a, sh, _, err := limiterCounts(p.url); err == nil {
			s.admitted += a
			s.shed += sh
		}
	}
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) == nil {
		s.clientCPU = tvSeconds(ru.Utime) + tvSeconds(ru.Stime)
	}
	return s
}

// queuePoll is how often a traced run samples the limiter's wait queue
// during a timed phase. The queue length is a gauge, so its peak has to
// be caught while the load runs.
const queuePoll = 20 * time.Millisecond

// probe is a timed phase being measured.
type probe struct {
	t       *topo
	p0      probeSnap
	endPoll func() float64 // ends polling, returns the peak queue length
}

// startProbe snapshots t's counters before a timed phase. A traced run
// also polls /api/health for the limiter's queue length during the phase;
// an untraced run does not, so its timed figures carry no probe traffic.
func (b *bench) startProbe(t *topo) *probe {
	p := &probe{t: t, p0: snapProbe(t), endPoll: func() float64 { return 0 }}
	if b.trace {
		var urls []string
		for _, sp := range t.procs() {
			urls = append(urls, sp.url)
		}
		p.endPoll = pollQueuePeak(urls, queuePoll)
	}
	return p
}

// pollQueuePeak samples the summed limiter queue length of the servers
// at urls every period until the returned function is called, which
// returns the largest sum seen.
func pollQueuePeak(urls []string, period time.Duration) func() float64 {
	done, peak := make(chan struct{}), make(chan float64)
	go func() {
		var top float64
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				peak <- top
				return
			case <-tick.C:
				var q float64
				for _, u := range urls {
					if _, _, n, err := limiterCounts(u); err == nil {
						q += n
					}
				}
				top = max(top, q)
			}
		}
	}()
	return func() float64 {
		close(done)
		return <-peak
	}
}

// stop ends the probe and returns the phase's deltas.
func (p *probe) stop() probeDelta {
	peak := p.endPoll()
	p1 := snapProbe(p.t)
	return probeDelta{
		probeSnap: probeSnap{
			serverCPU: p1.serverCPU - p.p0.serverCPU,
			clientCPU: p1.clientCPU - p.p0.clientCPU,
			admitted:  p1.admitted - p.p0.admitted,
			shed:      p1.shed - p.p0.shed,
		},
		queuedPeak: peak,
	}
}

// limiterCounts sums the admission limiter's per-class counters from a
// server's /api/health.
func limiterCounts(url string) (admitted, shed, queued float64, err error) {
	c := newConn(url)
	defer c.close()
	var h struct {
		Resilience struct {
			Limiter struct {
				Queued   map[string]float64 `json:"queued"`
				Admitted map[string]float64 `json:"admitted"`
				Shed     map[string]float64 `json:"shed"`
			} `json:"limiter"`
		} `json:"resilience"`
	}
	if _, err := c.getJSON("/api/health", &h); err != nil {
		return 0, 0, 0, err
	}
	lim := h.Resilience.Limiter
	return sum(lim.Admitted), sum(lim.Shed), sum(lim.Queued), nil
}

func tvSeconds(tv syscall.Timeval) float64 { return float64(tv.Sec) + float64(tv.Usec)/1e6 }

func sum(m map[string]float64) float64 {
	var s float64
	for _, v := range m {
		s += v
	}
	return s
}

// add files the deltas of one timed phase that completed ops.
func (l *layerProbe) add(d probeDelta, ops int) {
	l.d.serverCPU += d.serverCPU
	l.d.clientCPU += d.clientCPU
	l.d.admitted += d.admitted
	l.d.shed += d.shed
	l.d.queuedPeak = max(l.d.queuedPeak, d.queuedPeak)
	l.ops += ops
}

// ledger renders the probe deltas as per-layer metrics.
func (l *layerProbe) ledger() ledger {
	out := ledger{}
	ops := float64(max(l.ops, 1))
	out.put("server.cpu_ms_per_op", "ms", 1000*l.d.serverCPU/ops)
	out.put("client.cpu_ms_per_op", "ms", 1000*l.d.clientCPU/ops)
	out.put("resilience.admitted", "count", l.d.admitted)
	out.put("resilience.shed", "count", l.d.shed)
	out.put("resilience.queued_peak", "count", l.d.queuedPeak)
	return out
}

// ledger is a set of per-layer metrics.
type ledger map[string]metric

func (l ledger) put(name, unit string, v float64) { l[name] = metric{Value: v, Unit: unit} }
