package shard_test

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/query/limitq"
	"repro/internal/shard"
)

// buildQuantIndex builds the deterministic test index with the quantized
// scan plane enabled.
func buildQuantIndex(t *testing.T, n, reps int) (*core.Index, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	cfg := core.PretrainedConfig(reps, 2)
	cfg.Quantize = true
	ix, err := core.Build(cfg, ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

// TestShardQuantInvariance extends the headline shard property to the
// quantized plane: every scatter-gather path of a quantized sharded index —
// including cracks that prune through the code plane, before and after an
// append grew it — is bitwise what a float-only, from-scratch table over the
// final corpus and representatives computes, at every shard count and every
// worker count.
func TestShardQuantInvariance(t *testing.T) {
	const n, reps, extra = 500, 60, 60
	base, ds := buildIndex(t, n, reps)
	more, err := dataset.Generate("night-street", extra, 8)
	if err != nil {
		t.Fatal(err)
	}
	score := core.CountScore("car")

	// The writes: crack a spread of records, append a batch, then crack a
	// second spread that reaches into the appended rows — its cracks prune
	// through the code rows the append added to the last shard's plane.
	before, after := map[int]dataset.Annotation{}, map[int]dataset.Annotation{}
	var ids []int
	for id := 3; id < n; id += 41 {
		before[id] = ds.Truth[id]
		ids = append(ids, id)
	}
	for id := 17; id < n+extra; id += 29 {
		if id < n {
			after[id] = ds.Truth[id]
		} else {
			after[id] = more.Truth[id-n]
		}
		ids = append(ids, id)
	}
	features := extraFeatures(t, extra, 8)
	anns := maps.Clone(before)
	maps.Copy(anns, after)
	ref := newReference(base, features, ids, anns)
	wantProxy := ref.propagate(score, base.Table.K)
	wantScores, wantDists := ref.nearest(score)
	wantOrder := limitq.Order(wantScores, wantDists)

	for _, shards := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			ix, _ := buildQuantIndex(t, n, reps)
			x, err := shard.Split(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			x.SetParallelism(par)
			x.CrackAll(before)
			if _, err := x.AppendRecords(features); err != nil {
				t.Fatal(err)
			}
			x.CrackAll(after)
			sameTable(t, fmt.Sprintf("shards=%d par=%d", shards, par), x.Pin(), ref)
			for s := 0; s < x.NumShards(); s++ {
				if err := x.Shard(s).Validate(); err != nil {
					t.Fatalf("shards=%d par=%d: shard %d invalid: %v", shards, par, s, err)
				}
				if !x.Shard(s).Quant.Enabled() {
					t.Fatalf("shards=%d par=%d: shard %d lost its plane", shards, par, s)
				}
			}

			got, err := x.Propagate(score)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Propagate", got, wantProxy)
			gotScores, gotDists, err := x.PropagateNearest(score)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "PropagateNearest scores", gotScores, wantScores)
			sameBits(t, "PropagateNearest dists", gotDists, wantDists)
			sameInts(t, "LimitOrder", x.LimitOrder(gotScores, gotDists), wantOrder)
			t.Logf("shards=%d par=%d: quantized paths bitwise identical to float-only", shards, par)
		}
	}
}

// TestShardQuantMemoryStats: the sharded index reports the plane's resident
// bytes and the 8x float-to-code compression ratio.
func TestShardQuantMemoryStats(t *testing.T) {
	ix, _ := buildQuantIndex(t, 300, 30)
	dim := ix.Embeddings.Dim()
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := x.Pin().MemoryStats()
	if !m.Quantized() {
		t.Fatal("quantized index reports no plane bytes")
	}
	if want := int64(8 * 300 * dim); m.FloatBytes != want {
		t.Fatalf("FloatBytes = %d, want %d", m.FloatBytes, want)
	}
	if want := int64(300 * dim); m.QuantBytes != want {
		t.Fatalf("QuantBytes = %d, want %d", m.QuantBytes, want)
	}
	if r := m.CompressionRatio(); r != 8 {
		t.Fatalf("CompressionRatio = %v, want 8", r)
	}

	fx, _ := buildIndex(t, 300, 30)
	fs, err := shard.Split(fx, 3)
	if err != nil {
		t.Fatal(err)
	}
	fm := fs.Pin().MemoryStats()
	if fm.Quantized() || fm.CompressionRatio() != 0 {
		t.Fatalf("float-only index reports a plane: %+v", fm)
	}
}

// TestShardQuantPersistRoundTrip: the per-shard frames carry the
// plane through Save/Load, and the restored index still scans (and cracks)
// through it with identical results.
func TestShardQuantPersistRoundTrip(t *testing.T) {
	ix, ds := buildQuantIndex(t, 300, 30)
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := shard.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < got.NumShards(); s++ {
		if !got.Shard(s).Quant.Enabled() {
			t.Fatalf("restored shard %d has no plane", s)
		}
	}
	if r := got.Pin().MemoryStats().CompressionRatio(); r != 8 {
		t.Fatalf("restored CompressionRatio = %v, want 8", r)
	}

	// The restored plane is live: cracking through it matches the original.
	x.Crack(123, ds.Truth[123])
	got.Crack(123, ds.Truth[123])
	score := core.CountScore("car")
	want, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "post-crack Propagate", have, want)
}

// TestShardQuantRequantize: refitting the plane after drifted appends is a
// pure pruning improvement — results stay bitwise identical, the grid
// tightens, and a float-only index treats it as a no-op.
func TestShardQuantRequantize(t *testing.T) {
	const n, reps = 400, 40
	ix, _ := buildQuantIndex(t, n, reps)
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
	for s := 0; s < x.NumShards(); s++ {
		if err := x.Shard(s).Validate(); err != nil {
			t.Fatalf("shard %d invalid after requantize: %v", s, err)
		}
	}
	if refit := x.Shard(x.NumShards() - 1).Quant.MaxErr(); refit >= widened {
		t.Fatalf("requantize did not tighten the decode-error bound: %v -> %v", widened, refit)
	}
	got, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "post-requantize Propagate", got, want)

	fx, _ := buildIndex(t, 200, 20)
	fs, err := shard.Split(fx, 2)
	if err != nil {
		t.Fatal(err)
	}
	fs.Requantize() // must be a no-op, not a panic
	if fs.Pin().MemoryStats().Quantized() {
		t.Fatal("Requantize grew a plane on a float-only index")
	}
}
