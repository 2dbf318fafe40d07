package shard_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/shard"
)

// TestShardQuantMemoryStats: the served index reports the float rows' and
// the plane's resident bytes, one code byte per float64.
func TestShardQuantMemoryStats(t *testing.T) {
	ix, _ := buildIndex(t, 300, 30)
	dim := ix.Embeddings.Dim()
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := x.Pin().MemoryStats()
	if want := int64(8 * 300 * dim); m.FloatBytes != want {
		t.Fatalf("FloatBytes = %d, want %d", m.FloatBytes, want)
	}
	if want := int64(300 * dim); m.QuantBytes != want {
		t.Fatalf("QuantBytes = %d, want %d", m.QuantBytes, want)
	}
}

// TestShardQuantPersistRoundTrip: the snapshot carries the plane through
// Save/Load, and the restored plane is live: a crack pruning through it
// leaves the model's float table.
func TestShardQuantPersistRoundTrip(t *testing.T) {
	x, m, truth := modelIndex(t, 300, 30, 3)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := shard.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Pin().MemoryStats() != x.Pin().MemoryStats() {
		t.Fatalf("restored %+v, saved %+v", got.Pin().MemoryStats(), x.Pin().MemoryStats())
	}
	got.Crack(123, truth[123])
	m.crack([]int{123}, annsOf(truth, 123))
	matchesModel(t, "cracked after the load", got.Pin(), m, rand.New(rand.NewSource(1)))
}

// TestShardQuantRequantize: refitting the plane after drifted appends is a
// pure pruning improvement — results stay bitwise identical and the grid
// tightens.
func TestShardQuantRequantize(t *testing.T) {
	const n, reps = 400, 40
	ix, _ := buildIndex(t, n, reps)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Drifted appends: rows far outside the trained coordinate range.
	more, err := dataset.Generate("night-street", 50, 9)
	if err != nil {
		t.Fatal(err)
	}
	features := make([][]float64, more.Len())
	for i := range features {
		row := append([]float64(nil), more.Records[i].Features...)
		for d := range row {
			row[d] = row[d]*3 + 5
		}
		features[i] = row
	}
	if _, err := x.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
	widened := x.Shard(x.NumShards() - 1).Quant.MaxErr()
	score := core.CountScore("car")
	want, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}

	x.Requantize()
	if err := x.Pin().Validate(); err != nil {
		t.Fatal(err)
	}
	if refit := x.Shard(x.NumShards() - 1).Quant.MaxErr(); refit >= widened {
		t.Fatalf("requantize did not tighten the decode-error bound: %v -> %v", widened, refit)
	}
	got, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "post-requantize Propagate", got, want)
}
