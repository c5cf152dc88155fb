package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"
)

// The host this benchmark runs on is shared: over minutes its speed
// drifts by a third and more, and every wall-clock figure of a run moves
// with it. So a run also times a fixed reference workload, interleaved
// with its own phases, and reports each time metric scaled to a host on
// which one reference sample takes refNominal (see README.md).
//
// The reference workload is a small closed loop over loopback HTTP into a
// handler of this process that encodes a fixed JSON document, which the
// client decodes: the same kinds of work that dominate the servers —
// net/http, encoding/json, loopback sockets and goroutine wake-ups — done
// by code that no change to the program under test can touch.

// refNominal is the duration one reference sample is scaled to. It is
// about what a sample takes on an unloaded 2-core host, so the scaled
// figures stay close to the raw ones.
const refNominal = 30 * time.Millisecond

// refRequests is how many requests each of the reference loop's
// connections sends per sample.
const refRequests = 60

// refDoc is one record of the reference workload's fixed document.
type refDoc struct {
	ID       string   `json:"id"`
	Title    string   `json:"title"`
	Desc     string   `json:"description"`
	Classes  []string `json:"classifications"`
	Year     int      `json:"year"`
	Position int      `json:"position"`
}

// refDocs is the number of records in the reference document.
const refDocs = 40

// hostRef is the running reference: its server, its clients and the
// samples taken.
type hostRef struct {
	srv     *http.Server
	url     string
	cs      []*http.Client
	samples []float64 // ms
}

func newHostRef() (*hostRef, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	var docs []refDoc
	for i := 0; i < refDocs; i++ {
		docs = append(docs, refDoc{
			ID:       fmt.Sprintf("ref-%04d", i),
			Title:    strings.Repeat("parallel reduction ", 1+i%3),
			Desc:     strings.Repeat("threads share memory and synchronise at barriers; ", 2+i%4),
			Classes:  []string{"PDC12:Programming/Paradigms", "CS13:PD/ParallelDecomposition", fmt.Sprintf("CS13:SDF/%d", i)},
			Year:     2000 + i,
			Position: i,
		})
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/ref", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_ = json.NewEncoder(w).Encode(docs)
	})
	h := &hostRef{srv: &http.Server{Handler: mux}, url: "http://" + l.Addr().String() + "/ref"}
	go func() { _ = h.srv.Serve(l) }()
	for i := 0; i < conns; i++ {
		h.cs = append(h.cs, &http.Client{Transport: &http.Transport{
			MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true,
		}, Timeout: 10 * time.Second})
	}
	return h, nil
}

// sample times one pass of the reference loop and files it.
func (h *hostRef) sample() error {
	// Start from a collected heap, so a collection of the load
	// generator's own heap never lands in a sample.
	runtime.GC()
	start := time.Now()
	errs := make([]error, len(h.cs))
	var wg sync.WaitGroup
	for i, c := range h.cs {
		wg.Add(1)
		go func(i int, c *http.Client) {
			defer wg.Done()
			for j := 0; j < refRequests && errs[i] == nil; j++ {
				errs[i] = refGet(c, h.url)
			}
		}(i, c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("reference workload: %w", err)
	}
	h.samples = append(h.samples, ms(time.Since(start)))
	return nil
}

// refGet fetches the reference document and checks that it decodes.
func refGet(c *http.Client, url string) error {
	r, err := c.Get(url)
	if err != nil {
		return err
	}
	b, err := io.ReadAll(r.Body)
	r.Body.Close()
	if err != nil {
		return err
	}
	var docs []refDoc
	if err := json.Unmarshal(b, &docs); err != nil {
		return err
	}
	if len(docs) != refDocs {
		return fmt.Errorf("reference document has %d records, want %d", len(docs), refDocs)
	}
	return nil
}

// slowdown is the host's speed relative to the nominal one: the median
// reference sample over refNominal. It is above 1 on a slower host.
func (h *hostRef) slowdown() float64 {
	return median(h.samples) / ms(refNominal)
}

func (h *hostRef) close() {
	_ = h.srv.Close()
	for _, c := range h.cs {
		c.CloseIdleConnections()
	}
}
