package main

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// corpusOptions is a small server over dataset at seed whose index lives in
// snap.
func corpusOptions(dataset string, seed int64, snap string) serverOptions {
	return serverOptions{dataset: dataset, size: 800, train: 40, reps: 60, seed: seed, snapshotPath: snap}
}

// queryBodies answers one aggregate and one select on ts and returns the two
// bodies; each must answer 200.
func queryBodies(t *testing.T, ts *httptest.Server, class string) string {
	t.Helper()
	var out []string
	for _, q := range []struct{ route, body string }{
		{"aggregate", `{"class":"` + class + `","err":0.2}`},
		{"select", `{"class":"` + class + `","budget":80}`},
	} {
		resp, err := http.Post(ts.URL+"/query/"+q.route, "application/json", strings.NewReader(q.body))
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("/query/%s: status %d, body %s (%v)", q.route, resp.StatusCode, body, err)
		}
		out = append(out, string(body))
	}
	return strings.Join(out, "")
}

// TestServeRefusesSnapshotOfAnotherSeed: a snapshot built over the same
// dataset and size at another seed indexes other records. A server booted
// over it builds fresh and answers what a server with no snapshot answers;
// written back under a running server, a whole or one-shard reload of it is
// refused and the server keeps answering as before.
func TestServeRefusesSnapshotOfAnotherSeed(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	seed1 := filepath.Join(t.TempDir(), "seed1.snap")
	if _, err := newServer(corpusOptions("night-street", 1, seed1)); err != nil {
		t.Fatal(err)
	}
	seed1Bytes, err := os.ReadFile(seed1)
	if err != nil {
		t.Fatal(err)
	}

	fresh, err := newServer(corpusOptions("night-street", 2, ""))
	if err != nil {
		t.Fatal(err)
	}
	freshTS := httptest.NewServer(fresh.handler())
	defer freshTS.Close()
	want := queryBodies(t, freshTS, "car")

	var logs syncBuffer
	opts := corpusOptions("night-street", 2, seed1)
	opts.logger = newJSONLogger(&logs)
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "snapshot unusable; building fresh") || !strings.Contains(logs.String(), "another corpus") {
		t.Fatalf("a seed-1 snapshot under a seed-2 server did not log a corpus rebuild:\n%s", logs.String())
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	if got := queryBodies(t, ts, "car"); got != want {
		t.Fatalf("server booted over a seed-1 snapshot answers\n %s\nfresh seed-2 server answers\n %s", got, want)
	}

	// The boot re-saved the path with its own build; put the seed-1 index
	// back under it.
	if err := os.WriteFile(seed1, seed1Bytes, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusBadGateway {
		t.Errorf("POST /admin/reload of a seed-1 snapshot: status %d, body %v", resp.StatusCode, body)
	}
	if got := queryBodies(t, ts, "car"); got != want {
		t.Errorf("after the refused reloads the server answers\n %s\nwant\n %s", got, want)
	}
}

// TestServeRefusesSnapshotOfAnotherDataset: a night-street snapshot holds
// video annotations; a wikisql server booted over one builds fresh instead
// of serving them as text labels, and answers its queries.
func TestServeRefusesSnapshotOfAnotherDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	snap := filepath.Join(t.TempDir(), "video.snap")
	if _, err := newServer(corpusOptions("night-street", 1, snap)); err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	opts := corpusOptions("wikisql", 1, snap)
	opts.logger = newJSONLogger(&logs)
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "snapshot unusable; building fresh") {
		t.Fatalf("a night-street snapshot under a wikisql server did not log a rebuild:\n%s", logs.String())
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	queryBodies(t, ts, "select")

	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte("wikisql")) {
		t.Error("the rebuild did not re-save the snapshot under its own corpus")
	}
}
