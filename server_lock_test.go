package gqr_test

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"gqr"
	"gqr/internal/dataset"
	"gqr/internal/server"
)

// TestServerQueriesDoNotWaitForWriter holds the index's writer lock, as
// an Add blocked in fsync would, and checks that /batch and a coalesced
// /search still answer: neither needs more than the dimension, which is
// fixed at Build.
func TestServerQueriesDoNotWaitForWriter(t *testing.T) {
	ds := dataset.Generate(dataset.GeneratorSpec{
		Name: "lock", N: 400, Dim: 12, Clusters: 4, LatentDim: 3, Seed: 91,
	})
	ds.SampleQueries(2, 92)
	ix, err := gqr.Build(ds.Vectors, ds.Dim, gqr.WithSeed(93))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(server.New(ix, server.WithCoalescing(time.Millisecond, 8)))
	defer srv.Close()
	unlock := gqr.LockWriter(ix)
	defer unlock() // before srv.Close, which waits for blocked handlers

	client := &http.Client{Timeout: 5 * time.Second}
	q := ds.Query(0)
	for _, c := range []struct {
		path string
		body any
	}{
		{"/search", server.SearchRequest{Query: q, K: 5}},
		{"/batch", server.BatchRequest{Queries: [][]float32{q, ds.Query(1)}, K: 5}},
	} {
		raw, err := json.Marshal(c.body)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := client.Post(srv.URL+c.path, "application/json", bytes.NewReader(raw))
		if err != nil {
			t.Errorf("%s with the writer lock held: %v", c.path, err)
			continue
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s with the writer lock held: status %d", c.path, resp.StatusCode)
		}
	}
}
