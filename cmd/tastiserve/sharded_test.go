package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/tasti"
)

// shardedServer builds a 2-shard server whose sharded snapshot lives in a
// temp file, plus the httptest listener in front of it.
func shardedServer(t *testing.T) (*server, *httptest.Server, string) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "index.snap")
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 1500, train: 250, reps: 200, seed: 1,
		snapshotPath: snap, shards: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("fresh sharded build did not save the snapshot: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts, snap
}

// TestServeShardedEndpoints pins the sharded serving surface: /index reports
// the shard count, /metrics exports no per-shard series, a reload that names
// a shard reloads the whole index, and a restart from the sharded snapshot
// restores the shard count.
func TestServeShardedEndpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, snap := shardedServer(t)

	resp, err := http.Get(ts.URL + "/index")
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if got, ok := body["shards"].(float64); !ok || got != 2 {
		t.Errorf("/index shards = %v, want 2", body["shards"])
	}

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	// The dispatched kernel rides on tasti_build_info as a label.
	for _, series := range []string{`tasti_index_reps `, `tasti_build_info{`, fmt.Sprintf(`,kernel=%q,`, tasti.KernelName())} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	if strings.Contains(string(metrics), "tasti_shard_") {
		t.Error("/metrics carries a per-shard series; every shard views one record range")
	}

	// Every shard shares one representative set, so there is no shard to
	// swap alone: a crack, then a reload naming a shard, restores the whole
	// snapshot's representatives on every shard.
	reps := srv.index.RepCount()
	resp, err = http.Post(ts.URL+"/query/limit", "application/json",
		strings.NewReader(`{"class":"car","count":2,"k":20,"crack":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK || body["cracked"].(float64) == 0 {
		t.Fatalf("cracking limit: status %d, body %v", resp.StatusCode, body)
	}
	reloads := srv.reg.Counter(`tasti_snapshot_reload_total{outcome="ok"}`).Value()
	resp, err = http.Post(ts.URL+"/admin/reload?shard=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload naming shard 1: status %d, body %v", resp.StatusCode, body)
	}
	if got := srv.reg.Counter(`tasti_snapshot_reload_total{outcome="ok"}`).Value(); got != reloads+1 {
		t.Errorf("tasti_snapshot_reload_total{outcome=\"ok\"} went %d -> %d, want one whole-index reload", reloads, got)
	}
	for s := 0; s < srv.index.NumShards(); s++ {
		if got := len(srv.index.Shard(s).Table.Reps); got != reps {
			t.Errorf("after the reload shard %d has %d representatives, the snapshot %d", s, got, reps)
		}
	}

	// A restart pointed at the sharded snapshot restores the same layout —
	// the snapshot's shard count wins even when the flag disagrees.
	restarted, err := newServer(serverOptions{
		dataset: "night-street", size: 1500, train: 250, reps: 200, seed: 1,
		snapshotPath: snap, shards: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := restarted.index.NumShards(); got != 2 {
		t.Errorf("restart from a 2-shard snapshot serves %d shards, want 2", got)
	}
}
