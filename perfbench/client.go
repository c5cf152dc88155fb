package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync/atomic"
	"time"
)

// editor is the account every write is sent as; it is registered in each
// workspace the benchmark writes to.
const editor = "bench-editor"

// conn is one keep-alive HTTP connection of the closed loop: its
// transport holds at most one connection, so two conns are exactly two
// sockets and each sees its own writes in order.
type conn struct {
	base string
	hc   *http.Client
	// In the traced run, tr records a client span per request and reqs
	// numbers the requests.
	tr   *tracer
	reqs *atomic.Int64
}

func newConn(base string) *conn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}
	return &conn{base: base, hc: &http.Client{Transport: tr, Timeout: 60 * time.Second}}
}

func (c *conn) close() { c.hc.CloseIdleConnections() }

// withTrace returns a view of c whose requests carry request and span ids
// and are recorded as client spans.
func (c *conn) withTrace(tr *tracer, reqs *atomic.Int64) *conn {
	return &conn{base: c.base, hc: c.hc, tr: tr, reqs: reqs}
}

// call sends one request and reads the whole response body. The elapsed
// time covers request write through the last body byte.
func (c *conn) call(method, path string, body []byte, contentType string) (status int, resp []byte, elapsed time.Duration, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", contentType)
	}
	req.Header.Set("X-User", editor)
	if c.tr != nil {
		id, reqID := c.tr.newID(), c.reqs.Add(1)
		req.Header.Set(reqHeader, strconv.FormatInt(reqID, 10))
		req.Header.Set(spanHeader, strconv.FormatInt(id, 10))
		ts := c.tr.now()
		defer func() {
			c.tr.add(span{ID: id, Req: reqID, Name: "client." + opClass(method, req.URL.Path), Start: ts, End: c.tr.now()})
		}()
	}
	start := time.Now()
	r, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, time.Since(start), err
	}
	resp, err = io.ReadAll(r.Body)
	r.Body.Close()
	return r.StatusCode, resp, time.Since(start), err
}

// getJSON GETs path, requires a 200 and decodes the body into out.
func (c *conn) getJSON(path string, out any) (time.Duration, error) {
	st, b, d, err := c.call(http.MethodGet, path, nil, "")
	if err != nil {
		return d, err
	}
	if st != http.StatusOK {
		return d, fmt.Errorf("GET %s: status %d: %.200s", path, st, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return d, fmt.Errorf("GET %s: decode: %w", path, err)
		}
	}
	return d, nil
}

// sendJSON sends v as JSON and requires one of the accepted statuses.
func (c *conn) sendJSON(method, path string, v any, out any, ok ...int) (time.Duration, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return c.send(method, path, body, "application/json", out, ok...)
}

func (c *conn) send(method, path string, body []byte, ct string, out any, ok ...int) (time.Duration, error) {
	st, b, d, err := c.call(method, path, body, ct)
	if err != nil {
		return d, err
	}
	good := false
	for _, s := range ok {
		good = good || st == s
	}
	if !good {
		return d, fmt.Errorf("%s %s: status %d: %.200s", method, path, st, b)
	}
	if out != nil {
		if err := json.Unmarshal(b, out); err != nil {
			return d, fmt.Errorf("%s %s: decode: %w", method, path, err)
		}
	}
	return d, nil
}
