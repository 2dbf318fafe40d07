package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
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

// reloadServer builds a server whose index lives in a snapshot file, plus
// the httptest listener in front of it.
func reloadServer(t *testing.T) (*server, *httptest.Server, string) {
	t.Helper()
	snap := filepath.Join(t.TempDir(), "index.snap")
	srv, err := newServer(serverOptions{
		dataset: "night-street", size: 1500, train: 250, reps: 200, seed: 1,
		snapshotPath: snap,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(snap); err != nil {
		t.Fatalf("fresh build did not save the snapshot: %v", err)
	}
	ts := httptest.NewServer(srv.handler())
	t.Cleanup(ts.Close)
	return srv, ts, snap
}

// TestChaosServeHotReloadUnderLoad is the zero-downtime acceptance check:
// while query traffic runs flat out, repeated /admin/reload swaps must never
// fail a request — every query answers 200, every reload answers 200 (or 409
// when two collide).
func TestChaosServeHotReloadUnderLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, _ := reloadServer(t)

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
					errs <- fmt.Errorf("query during reload: status %d", resp.StatusCode)
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
			if err != nil {
				errs <- err
				continue
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusConflict {
				errs <- fmt.Errorf("reload: status %d", resp.StatusCode)
			}
		}
	}()
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if srv.reg.Counter(`tasti_snapshot_reload_total{outcome="ok"}`).Value() == 0 {
		t.Error("no successful reload recorded")
	}
	if srv.reg.Counter(`tasti_snapshot_reload_total{outcome="error"}`).Value() != 0 {
		t.Error("reload failures recorded under healthy snapshot")
	}
}

// TestServeReloadCorruptSnapshotKeepsServing pins corruption containment on
// the serving path: a reload pointed at a corrupted snapshot must fail with
// a 502, increment the failure counter, and leave the previous index
// answering queries — and a repaired snapshot must reload afterwards,
// restoring the pre-crack representative set.
func TestServeReloadCorruptSnapshotKeepsServing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, snap := reloadServer(t)
	good, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}

	// Crack the serving index so it drifts from the snapshot: a later reload
	// observably rolls the representative set back.
	resp, err := http.Post(ts.URL+"/query/limit", "application/json",
		strings.NewReader(`{"class":"car","count":3,"k":2,"crack":true}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	repsNow := srv.index.RepCount()

	// Corrupt the snapshot mid-file and try to reload it.
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if err := os.WriteFile(snap, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("reload of corrupt snapshot: status %d, body %v", resp.StatusCode, body)
	}
	if got := srv.reg.Counter(`tasti_snapshot_reload_total{outcome="error"}`).Value(); got != 1 {
		t.Errorf("reload failures = %d, want 1", got)
	}
	// The cracked index must still be serving, untouched.
	if got := srv.index.RepCount(); got != repsNow {
		t.Errorf("failed reload changed the serving index: %d reps, want %d", got, repsNow)
	}
	resp, err = http.Post(ts.URL+"/query/aggregate", "application/json",
		strings.NewReader(`{"class":"car","err":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query after failed reload: status %d", resp.StatusCode)
	}

	// Repair the snapshot; the reload must now succeed and roll back the
	// cracked representatives to the snapshot's 200. A reload that names a
	// shard reloads the whole index all the same.
	if err := os.WriteFile(snap, good, 0o644); err != nil {
		t.Fatal(err)
	}
	resp, err = http.Post(ts.URL+"/admin/reload?shard=1", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body = decodeBody(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reload of repaired snapshot: status %d, body %v", resp.StatusCode, body)
	}
	if got := srv.index.RepCount(); got != 200 {
		t.Errorf("reloaded index has %d reps, want the snapshot's 200", got)
	}
}

// TestServeStartupLoadsSnapshot pins the crash-recovery path: a second
// server pointed at the first one's snapshot serves without re-spending any
// labeling budget, and its index matches the snapshot. The file a one-shard
// server writes is the one index container — the one a refresh rewrites it
// as, and the one /admin/reload reads — while an index snapshot from before
// the v7 layout is reported unusable, rebuilt and re-saved.
func TestServeStartupLoadsSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, snap := reloadServer(t)
	want := srv.index

	err := tasti.ReadSnapshotFile(snap, func(r io.Reader) error {
		_, lerr := tasti.LoadShardedIndex(r)
		return lerr
	})
	if err != nil {
		t.Fatalf("a -shards 1 boot did not write the sharded container: %v", err)
	}
	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("reload of the one-shard snapshot: status %d, body %v", resp.StatusCode, body)
	}

	old := filepath.Join(t.TempDir(), "v6.snap")
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(old, atVersion(data, 6), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs syncBuffer
	fromOld, err := newServer(serverOptions{
		dataset: "night-street", size: 1500, train: 250, reps: 200, seed: 1,
		snapshotPath: old, logger: newJSONLogger(&logs),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(logs.String(), "snapshot unusable; building fresh") || !strings.Contains(logs.String(), "unsupported format version") {
		t.Fatalf("a v6 index snapshot did not log a version rebuild:\n%s", logs.String())
	}
	if got := fromOld.index.RepCount(); got != 200 {
		t.Fatalf("server rebuilt over a v6 snapshot has %d reps, want 200", got)
	}
	if err := tasti.ReadSnapshotFile(old, func(r io.Reader) error {
		_, lerr := tasti.LoadShardedIndex(r)
		return lerr
	}); err != nil {
		t.Fatalf("the rebuild did not re-save the snapshot at the current version: %v", err)
	}
	oldTS := httptest.NewServer(fromOld.handler())
	defer oldTS.Close()
	resp, err = http.Post(oldTS.URL+"/query/aggregate", "application/json", strings.NewReader(`{"class":"car","err":0.5}`))
	if err != nil {
		t.Fatal(err)
	}
	if body := decodeBody(t, resp); resp.StatusCode != http.StatusOK {
		t.Fatalf("query on the rebuilt index: status %d, body %v", resp.StatusCode, body)
	}

	// The snapshot's view count wins over a -shards flag that disagrees.
	restarted, err := newServer(serverOptions{
		dataset: "night-street", size: 1500, train: 250, reps: 200, seed: 1,
		snapshotPath: snap, shards: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	got := restarted.index
	if got.NumRecords() != want.NumRecords() || got.NumShards() != want.NumShards() {
		t.Fatalf("restored index has %d records in %d views, want %d in %d",
			got.NumRecords(), got.NumShards(), want.NumRecords(), want.NumShards())
	}
	gotReps, wantReps := got.Shard(0).Table.Reps, want.Shard(0).Table.Reps
	if len(gotReps) != len(wantReps) {
		t.Fatalf("restored index has %d reps, want %d", len(gotReps), len(wantReps))
	}
	for i, rep := range wantReps {
		if gotReps[i] != rep {
			t.Fatalf("restored rep[%d] = %d, want %d", i, gotReps[i], rep)
		}
	}
}

// atVersion returns a copy of a snapshot file whose header declares format
// version v, with the header and whole-file CRCs resealed — what an older
// build wrote, frame for frame.
func atVersion(data []byte, v uint32) []byte {
	b := bytes.Clone(data)
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	binary.BigEndian.PutUint32(b[8:], v)
	kindEnd := 13 + int(b[12])
	binary.BigEndian.PutUint32(b[kindEnd:], crc32.Checksum(b[8:kindEnd], castagnoli))
	binary.BigEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], castagnoli))
	return b
}

// TestServeReloadRejectsWrongSnapshot: a snapshot of a different corpus must
// be rejected at reload time, not served.
func TestServeReloadRejectsWrongSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	srv, ts, snap := reloadServer(t)

	// An index over a differently-sized corpus, bytes-valid but semantically
	// wrong for this server.
	other, err := newServer(serverOptions{
		dataset: "night-street", size: 900, train: 50, reps: 50, seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := other.index.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(snap, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Post(ts.URL+"/admin/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	body := decodeBody(t, resp)
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("reload of mismatched snapshot: status %d, body %v", resp.StatusCode, body)
	}
	if got := srv.index.NumRecords(); got != 1500 {
		t.Errorf("serving index now has %d records, want the original 1500", got)
	}
}
