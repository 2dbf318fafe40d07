package main

// The label store is the one home of every label the server buys: the build
// labels through it, -label-store restores it before the build, and its
// flushes carry training and representative labels alike. These tests pin
// what that buys an operator — a rebuild that pays for nothing on disk, a
// flush that never shrinks the file, a file of another corpus refused — and
// that the store's backpressure never reaches the build.

import (
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/tasti"
)

// labelStoreOptions is a small server over night-street whose labels live in
// path.
func labelStoreOptions(path string) serverOptions {
	return serverOptions{
		dataset: "night-street", size: 800, train: 60, reps: 60, seed: 1,
		parallelism: 2, labelStorePath: path,
	}
}

// restoreLabels reads a label-store file bound to opts' corpus.
func restoreLabels(t *testing.T, opts serverOptions) *tasti.LabelStore {
	t.Helper()
	labels := tasti.NewLabelStore(tasti.LabelStoreOptions{
		Corpus: tasti.Corpus{Dataset: opts.dataset, Size: opts.size, Seed: opts.seed},
	})
	if err := tasti.ReadSnapshotFile(opts.labelStorePath, labels.Restore); err != nil {
		t.Fatalf("reading %s: %v", opts.labelStorePath, err)
	}
	return labels
}

// assertSameIndex requires two served indexes to agree on everything a query
// reads: representatives, neighbor lists and embeddings by their float bits,
// and annotations.
func assertSameIndex(t *testing.T, want, got *tasti.ShardedIndex) {
	t.Helper()
	if got.NumShards() != want.NumShards() {
		t.Fatalf("%d shards, want %d", got.NumShards(), want.NumShards())
	}
	for s := range want.NumShards() {
		w, g := want.Shard(s), got.Shard(s)
		if !slices.Equal(g.Table.Reps, w.Table.Reps) {
			t.Fatalf("shard %d reps %v, want %v", s, g.Table.Reps, w.Table.Reps)
		}
		for i, nbrs := range w.Table.Neighbors {
			for j, nb := range nbrs {
				if gn := g.Table.Neighbors[i][j]; gn.Rep != nb.Rep || math.Float64bits(gn.Dist) != math.Float64bits(nb.Dist) {
					t.Fatalf("shard %d record %d neighbor %d = %+v, want %+v", s, i, j, gn, nb)
				}
			}
		}
		for i := range w.Embeddings.Rows() {
			for j, v := range w.Embeddings.Row(i) {
				if math.Float64bits(g.Embeddings.Row(i)[j]) != math.Float64bits(v) {
					t.Fatalf("shard %d embedding[%d][%d] differs", s, i, j)
				}
			}
		}
		if !reflect.DeepEqual(g.Annotations, w.Annotations) {
			t.Fatalf("shard %d annotations differ", s)
		}
	}
}

// TestLabelStoreRestartRebuildsForFree: a restart that lost its index
// snapshot but kept -label-store rebuilds the same index bit for bit without
// a single labeler call — the training labels are on disk too. The snapshot
// is lost three times: rewritten under the v5 and the v6 header, which the
// index loader refuses (the server logs the rebuild), and deleted.
func TestLabelStoreRestartRebuildsForFree(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	opts := labelStoreOptions(filepath.Join(dir, "labels.snap"))
	opts.snapshotPath = filepath.Join(dir, "ix.snap")
	first, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	first.startLabelFlushLoop()() // the drain path's final flush
	built := first.index.Pin().Stats
	if got, want := int64(restoreLabels(t, opts).Len()), built.TotalLabelCalls(); got != want {
		t.Fatalf("the label store holds %d labels, the build bought %d", got, want)
	}

	for _, lost := range []string{"v5", "v6", "deleted"} {
		if v := map[string]uint32{"v5": 5, "v6": 6}[lost]; v != 0 {
			data, err := os.ReadFile(opts.snapshotPath)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(opts.snapshotPath, atVersion(data, v), 0o644); err != nil {
				t.Fatal(err)
			}
		} else if err := os.Remove(opts.snapshotPath); err != nil {
			t.Fatal(err)
		}
		var logs syncBuffer
		opts.logger = newJSONLogger(&logs)
		restarted, err := newServer(opts)
		if err != nil {
			t.Fatal(err)
		}
		if rebuilt := strings.Contains(logs.String(), "snapshot unusable; building fresh"); rebuilt != (lost != "deleted") {
			t.Fatalf("snapshot %s: logged a rebuild of an unusable snapshot = %v:\n%s", lost, rebuilt, logs.String())
		}
		stats := restarted.index.Pin().Stats
		if stats.TotalLabelCalls() != 0 {
			t.Fatalf("snapshot %s: the rebuild spent %d labeler calls, want 0", lost, stats.TotalLabelCalls())
		}
		if int64(stats.ResumedLabels) != built.TotalLabelCalls() {
			t.Fatalf("snapshot %s: ResumedLabels = %d, want the %d labels on disk", lost, stats.ResumedLabels, built.TotalLabelCalls())
		}
		assertSameIndex(t, first.index, restarted.index)
	}
}

// TestLabelStoreFlushDuringBuildKeepsFileLabels: with the flush loop ticking
// through a build that buys labels, no flush ever writes a file missing a
// label it held before — the restore lands before the build's first label.
func TestLabelStoreFlushDuringBuildKeepsFileLabels(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := labelStoreOptions(filepath.Join(t.TempDir(), "labels.snap"))
	seed, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	seed.startLabelFlushLoop()()
	held := restoreLabels(t, opts).Annotations()

	// A bigger build over the same corpus buys labels the file lacks.
	opts.train, opts.reps, opts.labelFlush = 150, 150, time.Millisecond
	var logs syncBuffer
	opts.logger = newJSONLogger(&logs)
	srv := newServerShell(opts)
	stop := srv.startLabelFlushLoop()
	var built atomic.Bool
	done := make(chan error, 1)
	go func() {
		err := srv.build()
		built.Store(true)
		done <- err
	}()
	reads, grown := 0, 0
	for !built.Load() {
		file := restoreLabels(t, opts).Annotations()
		for id := range held {
			if _, ok := file[id]; !ok {
				t.Fatalf("a flush during the build wrote %d labels without record %d, which the file held", len(file), id)
			}
		}
		reads++
		if len(file) > len(held) {
			grown++
		}
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	stop()
	if grown == 0 {
		t.Fatalf("no flush landed during the build in %d reads of the file", reads)
	}
	final := restoreLabels(t, opts)
	if want := len(held) + int(srv.index.Pin().Stats.TotalLabelCalls()); final.Len() != want {
		t.Fatalf("the final flush holds %d labels, want %d (file) + build", final.Len(), want)
	}
}

// TestLabelStoreOtherCorpusUnusable: a -seed 2 server pointed at a -seed 1
// label store logs the file as unusable and answers exactly as a fresh
// -seed 2 server — it never serves the other corpus's annotations.
func TestLabelStoreOtherCorpusUnusable(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := labelStoreOptions(filepath.Join(t.TempDir(), "labels.snap"))
	seed1, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	seed1.startLabelFlushLoop()()

	opts.seed = 2
	var logs syncBuffer
	opts.logger = newJSONLogger(&logs)
	mismatched, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if out := logs.String(); !strings.Contains(out, "label store unusable; starting empty") || !strings.Contains(out, "snapshot of another corpus") {
		t.Fatalf("the other corpus's label store was not reported unusable:\n%s", out)
	}
	if mismatched.index.Pin().Stats.ResumedLabels != 0 {
		t.Fatalf("the build resumed %d labels of another corpus", mismatched.index.Pin().Stats.ResumedLabels)
	}
	opts.labelStorePath, opts.logger = "", nil
	fresh, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}

	mts := httptest.NewServer(mismatched.handler())
	defer mts.Close()
	fts := httptest.NewServer(fresh.handler())
	defer fts.Close()
	for _, q := range []struct{ path, body string }{
		{"/query/aggregate", `{"class":"car","err":0.2}`},
		{"/query/select", `{"class":"car","count":1,"budget":80}`},
		{"/query/limit", `{"class":"car","count":2,"k":3}`},
	} {
		if got, want := postBody(t, mts.URL+q.path, q.body), postBody(t, fts.URL+q.path, q.body); got != want {
			t.Errorf("%s: the server over the other corpus's store answered\n%s\nwant (fresh server)\n%s", q.path, got, want)
		}
	}
}

// TestLabelStoreInflightBelowParallelism: an in-flight cap below the build's
// worker count (-label-inflight 1 -parallelism 2) is query backpressure only;
// the build completes and the server serves. Enough representatives for two
// work chunks, and transient faults retried with backoff, keep the two
// workers' calls in flight at once.
func TestLabelStoreInflightBelowParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	opts := labelStoreOptions("")
	opts.labelInflight, opts.reps = 1, 200
	opts.faultRate = 0.3
	opts.retry = tasti.DefaultRetryPolicy(1)
	srv, err := newServer(opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := srv.reg.Counter("tasti_labelstore_saturated_total").Value(); got != 0 {
		t.Fatalf("the build counted %d saturations", got)
	}
	ts := httptest.NewServer(srv.handler())
	defer ts.Close()
	postBody(t, ts.URL+"/query/aggregate", `{"class":"car","err":0.5}`)
}

// postBody posts body to url and returns the 200 response's body.
func postBody(t *testing.T, url, body string) string {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("%s: status %d: %s", url, resp.StatusCode, raw)
	}
	return string(raw)
}
