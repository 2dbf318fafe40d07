package shard_test

import (
	"errors"
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

// TestShardAppendNoEmbedder pins the typed error for a model-less index.
func TestShardAppendNoEmbedder(t *testing.T) {
	ix, _ := buildIndex(t, 200, 20)
	ix.Embedder = nil
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.AppendRecords(extraFeatures(t, 1, 3)); !errors.Is(err, core.ErrNoEmbedder) {
		t.Fatalf("err = %v, want core.ErrNoEmbedder", err)
	}
}
