package shard_test

import (
	"bytes"
	"fmt"
	"maps"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/query/limitq"
	"repro/internal/shard"
)

// TestShardQuantInvariance extends the headline shard property to the
// quantized plane: every scatter-gather path of a sharded index — including
// cracks that prune through the code plane, before and after an append grew
// it and widened its decode-error bound — is bitwise what the unsharded float
// table evolved through cluster's float API computes, at every shard count
// and every worker count.
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
	// The second half of the batch lies far outside the trained range, so the
	// append widens the plane's decode-error bound for every record.
	features := extraFeatures(t, extra, 8)
	for _, row := range features[extra/2:] {
		for d := range row {
			row[d] = row[d]*3 + 5
		}
	}
	anns := maps.Clone(before)
	maps.Copy(anns, after)
	ref := newReference(base, features, ids, anns)
	wantProxy := ref.propagate(score, base.Table.K)
	wantScores, wantDists := ref.nearest(score)
	wantOrder := limitq.Order(wantScores, wantDists)

	for _, shards := range []int{1, 2, 4} {
		for _, par := range []int{1, 4} {
			ix, _ := buildIndex(t, n, reps)
			x, err := shard.Split(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			x.SetParallelism(par)
			x.CrackAll(before)
			if _, err := x.AppendRecords(features); err != nil {
				t.Fatal(err)
			}
			if !x.Shard(0).Quant.Widened() {
				t.Fatal("the drifted append did not widen the plane's decode-error bound")
			}
			x.CrackAll(after)
			sameTable(t, fmt.Sprintf("shards=%d par=%d", shards, par), x.Pin(), ref)
			carriesPlanes(t, fmt.Sprintf("shards=%d par=%d", shards, par), x.Pin())

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
			t.Logf("shards=%d par=%d: quantized paths bitwise identical to the float table", shards, par)
		}
	}
}

// TestShardQuantMemoryStats: the sharded index reports the float rows' and
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

// TestShardQuantPersistRoundTrip: the snapshot frames carry the
// plane through Save/Load, and the restored index still scans (and cracks)
// through it with identical results.
func TestShardQuantPersistRoundTrip(t *testing.T) {
	ix, ds := buildIndex(t, 300, 30)
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
	if got.Pin().MemoryStats() != x.Pin().MemoryStats() {
		t.Fatalf("restored %+v, saved %+v", got.Pin().MemoryStats(), x.Pin().MemoryStats())
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
	carriesPlanes(t, "requantize", x.Pin())
	if refit := x.Shard(x.NumShards() - 1).Quant.MaxErr(); refit >= widened {
		t.Fatalf("requantize did not tighten the decode-error bound: %v -> %v", widened, refit)
	}
	got, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "post-requantize Propagate", got, want)
}

// carriesPlanes fails unless v is valid, which includes a quantized plane
// over exactly its records.
func carriesPlanes(t *testing.T, step string, v *shard.Version) {
	t.Helper()
	if err := v.Validate(); err != nil {
		t.Fatalf("%s: invalid: %v", step, err)
	}
}

// TestEveryShardCarriesAPlane: every shard of every version holds a quantized
// plane over exactly its records — after Split of a built index and of a
// hand-built one with no plane, and after Load, CrackAll, AppendRecords,
// Clone and Requantize.
func TestEveryShardCarriesAPlane(t *testing.T) {
	for _, shards := range []int{1, 3} {
		cfg := fmt.Sprintf("shards=%d", shards)
		ix, ds := buildIndex(t, 300, 30)
		x, err := shard.Split(ix, shards)
		if err != nil {
			t.Fatal(err)
		}
		carriesPlanes(t, cfg+" split", x.Pin())

		bare, _ := buildIndex(t, 300, 30)
		literal := &core.Index{Embeddings: bare.Embeddings, Table: bare.Table, Annotations: bare.Annotations}
		lx, err := shard.Split(literal, shards)
		if err != nil {
			t.Fatal(err)
		}
		carriesPlanes(t, cfg+" split of a plane-less index", lx.Pin())

		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := shard.Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		carriesPlanes(t, cfg+" load", loaded.Pin())

		x.CrackAll(map[int]dataset.Annotation{7: ds.Truth[7], 211: ds.Truth[211]})
		carriesPlanes(t, cfg+" crack", x.Pin())
		if _, err := x.AppendRecords(extraFeatures(t, 9, 4)); err != nil {
			t.Fatal(err)
		}
		carriesPlanes(t, cfg+" append", x.Pin())
		carriesPlanes(t, cfg+" clone", x.Clone().Pin())
		x.Requantize()
		carriesPlanes(t, cfg+" requantize", x.Pin())
	}
}
