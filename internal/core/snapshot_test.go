package core_test

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/triplet"
)

// A built index is persisted by package shard, the one index codec: these
// tests pin that everything a build produces survives it bit for bit.

// build builds an index over n night-street records.
func build(t *testing.T, cfg core.Config, n int) *core.Index {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(cfg, ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// roundTrip splits ix into one shard, saves it and loads the file back.
func roundTrip(t *testing.T, ix *core.Index) (saved, loaded *shard.Index) {
	t.Helper()
	saved, err := shard.Split(ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := saved.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if loaded, err = shard.Load(&buf); err != nil {
		t.Fatal(err)
	}
	return saved, loaded
}

// sameShard fails unless got holds want's state, float bits included.
func sameShard(t *testing.T, want, got *shard.Shard) {
	t.Helper()
	bits := func(xs []float64) []uint64 {
		out := make([]uint64, len(xs))
		for i, x := range xs {
			out[i] = math.Float64bits(x)
		}
		return out
	}
	if got.Lo != want.Lo || got.Hi != want.Hi {
		t.Fatalf("range [%d,%d), want [%d,%d)", got.Lo, got.Hi, want.Lo, want.Hi)
	}
	if got.Embeddings.Dim() != want.Embeddings.Dim() || !slices.Equal(bits(got.Embeddings.Data()), bits(want.Embeddings.Data())) {
		t.Fatal("embedding bits differ")
	}
	if got.Table.K != want.Table.K || !slices.Equal(got.Table.Reps, want.Table.Reps) {
		t.Fatal("table header differs")
	}
	for i, row := range want.Table.Neighbors {
		for j, nb := range row {
			if g := got.Table.Neighbors[i][j]; g.Rep != nb.Rep || math.Float64bits(g.Dist) != math.Float64bits(nb.Dist) {
				t.Fatalf("record %d neighbor %d: %+v, want %+v", i, j, g, nb)
			}
		}
	}
	if len(got.Annotations) != len(want.Annotations) {
		t.Fatalf("%d annotations, want %d", len(got.Annotations), len(want.Annotations))
	}
	for id := range want.Annotations {
		if _, ok := got.Annotations[id]; !ok {
			t.Fatalf("annotation %d lost", id)
		}
	}
	wq, gq := want.Quant, got.Quant
	if !slices.Equal(gq.Codes(), wq.Codes()) ||
		math.Float64bits(gq.MaxErr()) != math.Float64bits(wq.MaxErr()) ||
		!slices.Equal(bits(gq.Params().Scale), bits(wq.Params().Scale)) ||
		!slices.Equal(bits(gq.Params().Offset), bits(wq.Params().Offset)) {
		t.Fatal("quantized plane differs")
	}
}

// TestLoadRoundTripState pins the loaded state field by field: table shape,
// representatives, annotations and every embedding and distance bit.
func TestLoadRoundTripState(t *testing.T) {
	cfg := core.PretrainedConfig(25, 5)
	cfg.EmbedDim = 8
	cfg.K = 3
	saved, loaded := roundTrip(t, build(t, cfg, 300))
	sameShard(t, saved.Shard(0), loaded.Shard(0))
}

// TestSaveLoadRoundTrip: a triplet-trained index propagates bitwise the same
// after a round trip, and its build stats survive.
func TestSaveLoadRoundTrip(t *testing.T) {
	cfg := core.DefaultConfig(80, 50, triplet.VideoBucketKey(0.5), 3)
	cfg.Train = triplet.DefaultConfig(cfg.EmbedDim, cfg.Seed)
	cfg.Train.Steps = 120
	saved, loaded := roundTrip(t, build(t, cfg, 500))
	score := core.CountScore("car")
	want, err := saved.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) {
			t.Fatalf("record %d: loaded index propagates %v, want %v", i, got[i], want[i])
		}
	}
	if loaded.Pin().Stats.TotalLabelCalls() != saved.Pin().Stats.TotalLabelCalls() {
		t.Error("stats not persisted")
	}
}

// TestQuantSaveLoadRoundTrip: the quantized plane round-trips — params,
// decode-error bound and every code byte.
func TestQuantSaveLoadRoundTrip(t *testing.T) {
	saved, loaded := roundTrip(t, build(t, core.PretrainedConfig(40, 6), 400))
	if !loaded.Shard(0).Quant.Enabled() {
		t.Fatal("loaded index lost the quantized plane")
	}
	sameShard(t, saved.Shard(0), loaded.Shard(0))
}

// TestLoadWrongKindRejected pins that a label-store file cannot be loaded as
// an index, nor an index as a label store: the kind check fires before any
// decoding.
func TestLoadWrongKindRejected(t *testing.T) {
	var labels bytes.Buffer
	if err := store.New(store.Options{}).Save(&labels); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Load(bytes.NewReader(labels.Bytes())); !errors.Is(err, snapshot.ErrKind) {
		t.Fatalf("label store as index: err = %v, want ErrKind", err)
	}
	saved, _ := roundTrip(t, build(t, core.PretrainedConfig(10, 1), 100))
	var ix bytes.Buffer
	if err := saved.Save(&ix); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(bytes.NewReader(ix.Bytes()), store.Options{}); !errors.Is(err, snapshot.ErrKind) {
		t.Fatalf("index as label store: err = %v, want ErrKind", err)
	}
}

// TestLoadRejectsGarbage: bytes that are not a snapshot fail as such.
func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := shard.Load(bytes.NewBufferString("not a gob")); !errors.Is(err, snapshot.ErrBadMagic) {
		t.Errorf("garbage: err = %v, want ErrBadMagic", err)
	}
}

// TestSaveIsFramed pins the writer side: index snapshots and label stores
// start with the snapshot magic, so old readers fail loudly instead of
// misparsing, and a format-stability diff can key on the prefix.
func TestSaveIsFramed(t *testing.T) {
	saved, _ := roundTrip(t, build(t, core.PretrainedConfig(10, 1), 100))
	var ix bytes.Buffer
	if err := saved.Save(&ix); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ix.Bytes(), snapshot.Magic[:]) {
		t.Fatal("index Save did not write the snapshot magic")
	}
	var labels bytes.Buffer
	if err := store.New(store.Options{}).Save(&labels); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(labels.Bytes(), snapshot.Magic[:]) {
		t.Fatal("the label store's Save did not write the snapshot magic")
	}
}
