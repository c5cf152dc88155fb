package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"slices"
	"sort"
	"time"

	"carcs/internal/ingest"
)

// Op classes: the end-to-end p50 metrics are keyed by these.
const (
	opLookup   = "lookup"
	opPage     = "page"
	opSearch   = "search"
	opAnalysis = "analysis"
	opWrite    = "write"
)

var opClasses = []string{opLookup, opPage, opSearch, opAnalysis, opWrite}

// pageLimit is the cursor page size every page op asks for.
const pageLimit = 50

// lookup GETs one material and checks that the requested id came back.
func lookup(c *conn, prefix, id string) (time.Duration, error) {
	var m struct {
		ID string `json:"id"`
	}
	d, err := c.getJSON("/api"+prefix+"/materials/"+url.PathEscape(id), &m)
	if err == nil && m.ID != id {
		err = fmt.Errorf("lookup %s returned %q", id, m.ID)
	}
	return d, err
}

// page GETs the cursor page after `after` and checks it against ids, the
// sorted id list the workspace is known to hold.
func page(c *conn, prefix, after string, ids []string) (time.Duration, string, error) {
	var env struct {
		Total     int    `json:"total"`
		Next      string `json:"next_cursor"`
		Materials []struct {
			ID string `json:"id"`
		} `json:"materials"`
	}
	path := fmt.Sprintf("/api%s/materials?after=%s&limit=%d", prefix, url.QueryEscape(after), pageLimit)
	d, err := c.getJSON(path, &env)
	if err != nil {
		return d, "", err
	}
	start := sort.SearchStrings(ids, after)
	if start < len(ids) && ids[start] == after {
		start++
	}
	want := ids[start:min(start+pageLimit, len(ids))]
	if env.Total != len(ids) || len(env.Materials) != len(want) {
		return d, "", fmt.Errorf("page after %q: total %d, %d rows; want %d, %d", after, env.Total, len(env.Materials), len(ids), len(want))
	}
	for i, m := range env.Materials {
		if m.ID != want[i] {
			return d, "", fmt.Errorf("page after %q: row %d is %q, want %q", after, i, m.ID, want[i])
		}
	}
	return d, env.Next, nil
}

// searchOp runs a full-text search for an in-vocabulary term and checks
// that it has hits.
func searchOp(c *conn, prefix, term string) (time.Duration, error) {
	st, b, d, err := c.call(http.MethodGet, "/api"+prefix+"/search?k=10&q="+url.QueryEscape(term), nil, "")
	if err != nil {
		return d, err
	}
	if st != http.StatusOK {
		return d, fmt.Errorf("search %q: status %d", term, st)
	}
	var hits []json.RawMessage
	if json.Unmarshal(b, &hits) != nil {
		var corrected struct {
			Hits []json.RawMessage `json:"hits"`
		}
		if err := json.Unmarshal(b, &corrected); err != nil {
			return d, fmt.Errorf("search %q: decode: %w", term, err)
		}
		hits = corrected.Hits
	}
	if len(hits) == 0 {
		return d, fmt.Errorf("search %q: no hits for an in-vocabulary term", term)
	}
	return d, nil
}

// coverageOp checks that the coverage report counts exactly want
// materials in collection.
func coverageOp(c *conn, prefix, ontology, collection string, want int) (time.Duration, error) {
	var rep struct {
		Materials int `json:"materials"`
	}
	d, err := c.getJSON(fmt.Sprintf("/api%s/coverage?ontology=%s&collection=%s", prefix, ontology, collection), &rep)
	if err == nil && rep.Materials != want {
		err = fmt.Errorf("coverage %s/%s: %d materials, want %d", ontology, collection, rep.Materials, want)
	}
	return d, err
}

// gapsOp checks that the gap report decodes as a list.
func gapsOp(c *conn, prefix, ontology, collection string) (time.Duration, error) {
	var gaps []json.RawMessage
	return c.getJSON(fmt.Sprintf("/api%s/gaps?ontology=%s&collection=%s", prefix, ontology, collection), &gaps)
}

// similarityOp checks that the similarity graph of two paper collections
// has nodes.
func similarityOp(c *conn, prefix, left, right string) (time.Duration, error) {
	var g struct {
		Nodes int `json:"nodes"`
	}
	d, err := c.getJSON(fmt.Sprintf("/api%s/similarity?left=%s&right=%s", prefix, left, right), &g)
	if err == nil && g.Nodes == 0 {
		err = fmt.Errorf("similarity %s/%s: empty graph", left, right)
	}
	return d, err
}

// replacementsOp checks that the PDC replacement query answers.
func replacementsOp(c *conn, prefix, id string) (time.Duration, error) {
	var edges []json.RawMessage
	return c.getJSON("/api"+prefix+"/materials/"+url.PathEscape(id)+"/replacements", &edges)
}

// suggestOp checks that TF-IDF suggestions for text are non-empty.
func suggestOp(c *conn, prefix, text string) (time.Duration, error) {
	var sugg []json.RawMessage
	d, err := c.getJSON("/api"+prefix+"/suggest?method=tfidf&ontology=cs13&k=5&q="+url.QueryEscape(text), &sugg)
	if err == nil && len(sugg) == 0 {
		err = fmt.Errorf("suggest %q: no suggestions", text)
	}
	return d, err
}

// addOp POSTs one material and checks the echoed id.
func addOp(c *conn, prefix string, rec ingest.Record) (time.Duration, error) {
	var out struct {
		ID string `json:"id"`
	}
	d, err := c.sendJSON(http.MethodPost, "/api"+prefix+"/materials", rec, &out, http.StatusCreated)
	if err == nil && out.ID != rec.ID {
		err = fmt.Errorf("add %s: echoed %q", rec.ID, out.ID)
	}
	return d, err
}

// reclassifyOp replaces a material's classifications and checks the echo.
func reclassifyOp(c *conn, prefix, id string, cls []string) (time.Duration, error) {
	var out struct {
		Classifications []string `json:"classifications"`
	}
	d, err := c.sendJSON(http.MethodPut, "/api"+prefix+"/materials/"+url.PathEscape(id)+"/classifications",
		map[string][]string{"classifications": cls}, &out, http.StatusOK)
	if err == nil {
		got := slices.Clone(out.Classifications)
		want := slices.Clone(cls)
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) {
			err = fmt.Errorf("reclassify %s: got %v, want %v", id, got, want)
		}
	}
	return d, err
}

// walkListing pages through the whole listing of a workspace, checking
// that it holds exactly the sorted ids want, and files each page in rec.
func walkListing(c *conn, prefix string, want []string, rec *recorder) error {
	after := ""
	for {
		d, next, err := page(c, prefix, after, want)
		if !rec.record(opPage, d, err) {
			return err
		}
		if next == "" {
			return nil
		}
		after = next
	}
}
