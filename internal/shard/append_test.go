package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// extraFeatures generates an out-of-build batch of raw feature vectors, the
// shape of records arriving on a live ingest stream.
func extraFeatures(t *testing.T, n int, seed int64) [][]float64 {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	features := make([][]float64, ds.Len())
	for i := range features {
		features[i] = ds.Records[i].Features
	}
	return features
}

// embeddingRow returns record id's embedding row from the shard that owns it.
func embeddingRow(v *shard.Version, id int) []float64 {
	for s := 0; s < v.NumShards(); s++ {
		if sh := v.Shard(s); id >= sh.Lo && id < sh.Hi {
			return sh.Embeddings.Row(id - sh.Lo)
		}
	}
	panic(fmt.Sprintf("record %d not in any shard", id))
}

// TestShardAppendInvariance pins the append determinism contract: appending
// features to a served index — at every shard count and worker count —
// produces the embeddings, neighbor rows, and downstream propagation a
// from-scratch table over the grown corpus computes, bit for bit.
func TestShardAppendInvariance(t *testing.T) {
	const n, reps = 400, 50
	base, _ := buildIndex(t, n, reps)
	features := extraFeatures(t, 80, 99)
	ref := newReference(base, features, nil, nil)
	score := core.CountScore("car")
	wantProxy := ref.propagate(score, base.Table.K)

	for _, shards := range []int{1, 2, 3, 4} {
		for _, par := range []int{1, 4} {
			name := fmt.Sprintf("shards=%d par=%d", shards, par)
			ix, _ := buildIndex(t, n, reps)
			x, err := shard.Split(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			x.SetParallelism(par)
			ids, err := x.AppendRecords(features)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for i, id := range ids {
				if id != n+i {
					t.Fatalf("%s: append id %d = %d, want %d", name, i, id, n+i)
				}
			}
			sameTable(t, name, x.Pin(), ref)
			for _, id := range ids {
				if got, want := x.Pin().NearestDistance(id), ref.table.Neighbors[id][0].Dist; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s record %d: nearest dist %v, want %v", name, id, got, want)
				}
			}
			got, err := x.Propagate(score)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "proxy after append", got, wantProxy)
			for s := 0; s < x.NumShards(); s++ {
				if err := x.Shard(s).Validate(); err != nil {
					t.Fatalf("%s: shard %d after append: %v", name, s, err)
				}
			}
		}
	}
}

// TestShardAppendThenCrack checks appended records are crackable like any
// built record: the new representative lands in every shard's table and the
// tables stay valid. An empty batch appends nothing.
func TestShardAppendThenCrack(t *testing.T) {
	ix, _ := buildIndex(t, 300, 40)
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if ids, err := x.AppendRecords(nil); err != nil || ids != nil || x.NumRecords() != 300 {
		t.Fatalf("empty append: ids=%v err=%v, %d records", ids, err, x.NumRecords())
	}
	ids, err := x.AppendRecords(extraFeatures(t, 30, 7))
	if err != nil {
		t.Fatal(err)
	}
	before := x.RepCount()
	x.Crack(ids[10], dataset.VideoAnnotation{})
	if got := x.RepCount(); got != before+1 {
		t.Fatalf("RepCount = %d after crack, want %d", got, before+1)
	}
	for s := 0; s < x.NumShards(); s++ {
		if err := x.Shard(s).Validate(); err != nil {
			t.Fatalf("shard %d after crack: %v", s, err)
		}
	}
	if _, err := x.Propagate(core.CountScore("car")); err != nil {
		t.Fatal(err)
	}
}

// TestShardAppendNoEmbedder pins the typed error for a model-less index.
func TestShardAppendNoEmbedder(t *testing.T) {
	ix, _ := buildIndex(t, 200, 20)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	x.SetEmbedder(nil)
	if _, err := x.AppendRecords(extraFeatures(t, 1, 3)); !errors.Is(err, core.ErrNoEmbedder) {
		t.Fatalf("err = %v, want core.ErrNoEmbedder", err)
	}
}

// TestShardClone checks clone independence: mutating the clone (append +
// crack) leaves the original's record count, scores, and tables untouched,
// and the clone keeps the shared embedding model.
func TestShardClone(t *testing.T) {
	ix, _ := buildIndex(t, 300, 40)
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	score := core.CountScore("car")
	wantProxy, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}

	c := x.Clone()
	if c.Embedder() == nil {
		t.Fatal("clone lost the embedder")
	}
	ids, err := c.AppendRecords(extraFeatures(t, 20, 5))
	if err != nil {
		t.Fatal(err)
	}
	c.Crack(ids[0], dataset.VideoAnnotation{})
	c.Crack(3, dataset.VideoAnnotation{Boxes: []dataset.Box{{Class: "car"}}})

	if x.NumRecords() != 300 {
		t.Fatalf("original grew to %d records after clone mutation", x.NumRecords())
	}
	got, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "original proxy after clone mutation", got, wantProxy)
	if c.NumRecords() != 320 {
		t.Fatalf("clone has %d records, want 320", c.NumRecords())
	}
	if c.RepCount() != x.RepCount()+2 {
		t.Fatalf("clone RepCount = %d, original %d", c.RepCount(), x.RepCount())
	}
}

// TestShardMeanNearestDistance cross-checks the drift baseline against a
// direct sum over the unsharded table.
func TestShardMeanNearestDistance(t *testing.T) {
	base, _ := buildIndex(t, 250, 30)
	want := 0.0
	for _, row := range base.Table.Neighbors {
		want += row[0].Dist
	}
	want /= float64(base.NumRecords())

	ix, _ := buildIndex(t, 250, 30)
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	if got := x.Pin().MeanNearestDistance(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MeanNearestDistance = %v, want %v", got, want)
	}
}

// TestShardPersistEmbedder checks the embedding model survives a sharded
// snapshot round trip — and that a model-less index round-trips to a
// model-less index (the historic contract, and the shape of pre-embedder
// snapshots, which simply lack the frame).
func TestShardPersistEmbedder(t *testing.T) {
	ix, _ := buildIndex(t, 200, 25)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	features := extraFeatures(t, 10, 21)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Embedder() == nil {
		t.Fatal("sharded snapshot round trip lost the embedder")
	}
	wantIDs, err := x.AppendRecords(features)
	if err != nil {
		t.Fatal(err)
	}
	ids, err := loaded.AppendRecords(features)
	if err != nil {
		t.Fatal(err)
	}
	sameInts(t, "reloaded append ids", ids, wantIDs)
	for _, id := range ids {
		sameBits(t, "reloaded append row", embeddingRow(loaded.Pin(), id), embeddingRow(x.Pin(), id))
	}

	x.SetEmbedder(nil)
	buf.Reset()
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	plain, err := shard.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if plain.Embedder() != nil {
		t.Fatal("model-less save produced an embedder on load")
	}
}
