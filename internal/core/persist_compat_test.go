package core

import (
	"bytes"
	"testing"

	"repro/internal/snapshot"
)

// TestFlatFrameShapeMismatchRejected pins the flat-frame validation: a
// snapshot whose embeddings frame declares a shape inconsistent with its
// backing array (or with the neighbor table), or that carries the v1 per-row
// "embeddings" frame in its place, must be rejected with an error, never
// accepted or panicked on.
func TestFlatFrameShapeMismatchRejected(t *testing.T) {
	ix := smallIndex(t)
	write := func(frame string, embeddings any) []byte {
		var buf bytes.Buffer
		sw, err := snapshot.NewWriter(&buf, indexKind)
		if err != nil {
			t.Fatal(err)
		}
		sections := []struct {
			name string
			v    any
		}{
			{"meta", indexMeta{K: ix.Table.K, Reps: ix.Table.Reps}},
			{"neighbors", ix.Table.Neighbors},
			{"annotations", ix.Annotations},
			{frame, embeddings},
			{"stats", ix.Stats},
		}
		for _, s := range sections {
			if err := sw.Encode(s.name, s.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	data := ix.Embeddings.Data()
	rows, dim := ix.Embeddings.Rows(), ix.Embeddings.Dim()
	bad := []struct {
		name string
		flat flatEmbeddings
	}{
		{"truncated data", flatEmbeddings{Rows: rows, Dim: dim, Data: data[:len(data)-1]}},
		{"excess data", flatEmbeddings{Rows: rows, Dim: dim, Data: append(append([]float64(nil), data...), 0)}},
		{"negative rows", flatEmbeddings{Rows: -1, Dim: dim, Data: data}},
		{"negative dim", flatEmbeddings{Rows: rows, Dim: -dim, Data: data}},
		{"overflowing shape", flatEmbeddings{Rows: int(^uint(0)>>1)/2 + 1, Dim: 4, Data: data}},
		{"row count vs neighbors", flatEmbeddings{Rows: rows - 1, Dim: dim, Data: data[:(rows-1)*dim]}},
	}
	for _, tc := range bad {
		if _, err := Load(bytes.NewReader(write(embeddingsFlatFrame, tc.flat))); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	perRow := make([][]float64, rows)
	for i := range perRow {
		perRow[i] = ix.Embeddings.Row(i)
	}
	if _, err := Load(bytes.NewReader(write("embeddings", perRow))); err == nil {
		t.Error("v1 per-row embeddings frame: accepted")
	}
}
