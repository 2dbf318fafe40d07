package core_test

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/shard"
)

// TestAppendRecordsAfterReload pins the restored-embedder contract: a
// snapshot round trip keeps the embedding model, and appending the same
// features to the served original and the served reload produces
// bitwise-identical embeddings and neighbor rows — the invariant WAL replay
// after a restart depends on.
func TestAppendRecordsAfterReload(t *testing.T) {
	ds, err := dataset.Generate("night-street", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(core.PretrainedConfig(20, 2), ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := core.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Embedder == nil {
		t.Fatal("snapshot round trip lost the embedder")
	}
	extra, err := dataset.Generate("night-street", 250, 9)
	if err != nil {
		t.Fatal(err)
	}
	var features [][]float64
	for _, r := range extra.Records[200:] {
		features = append(features, r.Features)
	}
	var served [2]*shard.Shard
	for i, built := range []*core.Index{ix, loaded} {
		x, err := shard.Split(built, 1)
		if err != nil {
			t.Fatal(err)
		}
		ids, err := x.AppendRecords(features)
		if err != nil {
			t.Fatal(err)
		}
		if len(ids) != len(features) || ids[0] != 200 {
			t.Fatalf("appended ids %v, want %d from 200", ids, len(features))
		}
		served[i] = x.Shard(0)
	}
	a, b := served[0], served[1]
	for id := 200; id < a.Hi; id++ {
		for j, v := range a.Embeddings.Row(id) {
			if w := b.Embeddings.Row(id)[j]; math.Float64bits(v) != math.Float64bits(w) {
				t.Fatalf("record %d embedding dim %d: %v vs %v", id, j, v, w)
			}
		}
		na, nb := a.Table.Neighbors[id], b.Table.Neighbors[id]
		if len(na) != len(nb) {
			t.Fatalf("record %d: %d vs %d neighbors", id, len(na), len(nb))
		}
		for j := range na {
			if na[j] != nb[j] {
				t.Fatalf("record %d neighbor %d: %+v vs %+v", id, j, na[j], nb[j])
			}
		}
	}
}
