package main

import (
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
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

// TestChaosShardReloadUnderLoad is the per-shard zero-downtime acceptance
// check: while query traffic runs flat out against a 2-shard index, repeated
// POST /admin/reload?shard=1 swaps must never fail a request — every query
// answers 200, every shard reload answers 200 (or 409 when it collides with
// a whole-index reload guard).
func TestChaosShardReloadUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, _ := shardedServer(t)

	const clients, iters = 4, 6
	var wg sync.WaitGroup
	errs := make(chan error, clients*iters*2+iters)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				resp, err := http.Post(ts.URL+"/query/aggregate", "application/json",
					strings.NewReader(`{"class":"car","err":0.5}`))
				if err != nil {
					errs <- err
					continue
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					errs <- fmt.Errorf("query during shard reload: status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/admin/reload?shard=1", "application/json", nil)
			if err != nil {
				errs <- err
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				errs <- fmt.Errorf("shard reload: status %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	if srv.reg.Counter(`tasti_shard_reload_total{shard="1",outcome="ok"}`).Value() == 0 {
		t.Error("no successful shard reload recorded")
	}
	if got := srv.reg.Counter(`tasti_shard_reload_total{shard="1",outcome="error"}`).Value(); got != 0 {
		t.Errorf("%d shard reload failures under a healthy snapshot", got)
	}
	ix := srv.index
	if ix.NumShards() != 2 {
		t.Fatalf("serving index has %d shards, want 2", ix.NumShards())
	}
	for i := 0; i < ix.NumShards(); i++ {
		if err := ix.Shard(i).Validate(); err != nil {
			t.Errorf("shard %d invalid after reload storm: %v", i, err)
		}
	}
}

// TestServeShardedEndpoints pins the sharded serving surface: /index reports
// the shard count, /metrics exports the per-shard series, a bad or
// out-of-range shard number answers 400 without counting a reload failure,
// and a restart from the sharded snapshot restores the layout.
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
	for _, series := range []string{
		`tasti_shard_records{shard="0"}`,
		`tasti_shard_records{shard="1"}`,
		`tasti_shard_reps{shard="0"}`,
		`tasti_vecmath_kernel{kernel=`,
	} {
		if !strings.Contains(string(metrics), series) {
			t.Errorf("/metrics missing %s", series)
		}
	}

	resp, err = http.Post(ts.URL+"/admin/reload?shard=notanumber", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("reload with a garbage shard number: status %d, want 400", resp.StatusCode)
	}
	failures := srv.reg.Counter("tasti_snapshot_reload_failures_total").Value()
	for _, bad := range []string{"7", "-1"} {
		resp, err = http.Post(ts.URL+"/admin/reload?shard="+bad, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("reload of out-of-range shard %s: status %d, want 400", bad, resp.StatusCode)
		}
	}
	if got := srv.reg.Counter("tasti_snapshot_reload_failures_total").Value(); got != failures {
		t.Errorf("out-of-range reloads moved tasti_snapshot_reload_failures_total from %d to %d", failures, got)
	}
	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(metrics), `tasti_shard_reload_total{shard="7"`) {
		t.Error("an out-of-range reload minted a per-shard reload series")
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

// TestServeShardReloadRejectsMismatchedShard: a per-shard reload from a
// snapshot built at another embedding width is refused with 502 — the shard
// would otherwise install beside 64-dim peers and take the process down at
// the next crack — and the old shard keeps serving.
func TestServeShardReloadRejectsMismatchedShard(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, snap := shardedServer(t)
	ds, err := tasti.GenerateDataset("night-street", 1500, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := tasti.PretrainedConfig(40, 1)
	cfg.EmbedDim = 32
	built, err := tasti.Build(cfg, ds, tasti.NewOracle(ds, "target", tasti.MaskRCNNCost))
	if err != nil {
		t.Fatal(err)
	}
	narrow, err := tasti.SplitIndex(built, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := tasti.WriteFileAtomic(snap, narrow.Save); err != nil {
		t.Fatal(err)
	}

	before := srv.index.Shard(1)
	failures := srv.reg.Counter("tasti_snapshot_reload_failures_total").Value()
	resp, err := http.Post(ts.URL+"/admin/reload?shard=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("reload of a 32-dim shard: status %d, body %v", resp.StatusCode, body)
	}
	if srv.index.Shard(1) != before {
		t.Fatal("the refused shard replaced the serving one")
	}
	if got := srv.reg.Counter("tasti_snapshot_reload_failures_total").Value(); got != failures+1 {
		t.Errorf("tasti_snapshot_reload_failures_total went %d -> %d, want one more", failures, got)
	}
	resp, err = http.Post(ts.URL+"/query/limit", "application/json",
		strings.NewReader(`{"class":"car","count":2,"k":20,"crack":true}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("cracking limit after the refused reload: status %d, body %v", resp.StatusCode, body)
	}
}
