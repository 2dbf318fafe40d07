package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
)

// TestServeQueriesConcurrentWithCracking is the regression test for the
// index's concurrency contract: Index.Crack/CrackAll mutate Annotations and
// the distance table with no internal synchronization, so the server must
// serialize cracking against every query. Run under -race (CI does), this
// fails if the coarse server mutex ever stops covering a handler that
// touches the index.
func TestServeQueriesConcurrentWithCracking(t *testing.T) {
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 400, train: 30, reps: 40, seed: 1, parallelism: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()

	post := func(path string, body map[string]interface{}) error {
		buf, err := json.Marshal(body)
		if err != nil {
			return err
		}
		resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("%s: status %d", path, resp.StatusCode)
		}
		return nil
	}

	const clients = 4
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds*3)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				// Limit queries with crack=true mutate the index while the
				// other clients propagate and read index stats. Ask for more
				// matches than there are representatives: the scan is forced
				// past the already-annotated records, so non-representative
				// records get labeled and cracked in. A narrow query could be
				// satisfied entirely by top-ranked representatives, and an
				// exhausted one promotes only what it found — either way
				// cracking nothing.
				if err := post("/query/limit", map[string]interface{}{
					"class": "car", "count": 1, "k": 60, "crack": true,
				}); err != nil {
					errs <- err
				}
				if err := post("/query/aggregate", map[string]interface{}{
					"class": "car", "err": 0.5,
				}); err != nil {
					errs <- err
				}
				resp, err := http.Get(ts.URL + "/index")
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Cracking must have grown the representative set; the table must still
	// satisfy its invariants after concurrent traffic.
	if err := srv.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer srv.release()
	ix := srv.index.Load()
	if got := ix.RepCount(); got <= 40 {
		t.Errorf("expected cracking to add representatives, still %d", got)
	}
	for i := 0; i < ix.NumShards(); i++ {
		if err := ix.Shard(i).Table.Validate(); err != nil {
			t.Errorf("shard %d table invariants violated after concurrent serve+crack: %v", i, err)
		}
	}
}
