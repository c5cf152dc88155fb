package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"

	"carcs/internal/corpus"
	"carcs/internal/ingest"
	"carcs/internal/material"
)

// synth generates n synthetic materials from seed with the given id
// prefix; every workload's corpus comes from here, never from the network.
func synth(n int, seed int64, prefix string) []ingest.Record {
	out := make([]ingest.Record, 0, n)
	_ = corpus.SyntheticEach(corpus.SyntheticOptions{N: n, Seed: seed, IDPrefix: prefix},
		func(m *material.Material) error {
			out = append(out, ingest.FromMaterial(m))
			return nil
		})
	return out
}

// titleTerms are the distinct title words of the synthetic corpus longer
// than three letters, the search vocabulary every search op draws from.
func titleTerms(recs []ingest.Record) []string {
	seen := map[string]bool{}
	var out []string
	for _, r := range recs {
		for _, w := range strings.Fields(r.Title) {
			w = strings.ToLower(strings.Trim(w, "#0123456789"))
			if len(w) > 3 && !seen[w] {
				seen[w] = true
				out = append(out, w)
			}
		}
	}
	return out
}

// jsonl encodes records as the importer's JSONL input.
func jsonl(recs []ingest.Record) []byte {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, r := range recs {
		_ = enc.Encode(r) // a bytes.Buffer write cannot fail
	}
	return b.Bytes()
}

// batchSize keeps each POST /api/materials:batch body well under the
// server's 8 MiB batch cap.
const batchSize = 1000

// loadBatches commits recs to the workspace under prefix ("" or
// "/t/<name>") through the batch endpoint, one journal fsync per batch.
func loadBatches(c *conn, prefix string, recs []ingest.Record) error {
	for i := 0; i < len(recs); i += batchSize {
		end := min(i+batchSize, len(recs))
		var out struct {
			Added int `json:"added"`
		}
		if _, err := c.sendJSON(http.MethodPost, "/api"+prefix+"/materials:batch",
			map[string]any{"materials": recs[i:end]}, &out, http.StatusCreated); err != nil {
			return err
		}
		if out.Added != end-i {
			return fmt.Errorf("batch at %d: added %d of %d", i, out.Added, end-i)
		}
	}
	return nil
}

// register creates the editor account in the workspace under prefix.
func register(c *conn, prefix string) error {
	_, err := c.sendJSON(http.MethodPost, "/api"+prefix+"/accounts",
		map[string]string{"name": editor, "role": "editor"}, nil, http.StatusCreated)
	return err
}

// createTenant creates workspace name on the server.
func createTenant(c *conn, name string) error {
	_, err := c.send(http.MethodPut, "/api/t/"+name, nil, "", nil, http.StatusCreated)
	return err
}
