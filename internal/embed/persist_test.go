package embed

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"

	"repro/internal/nn"
)

// roundTrip pushes a Snapshot through gob, the same codec the index snapshot
// frame uses.
func roundTrip(t *testing.T, s Snapshot) Snapshot {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(s); err != nil {
		t.Fatalf("encode: %v", err)
	}
	var out Snapshot
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return out
}

func sameEmbedding(t *testing.T, a, b Embedder, inputDim int) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 5; trial++ {
		x := make([]float64, inputDim)
		for i := range x {
			x[i] = r.NormFloat64()
		}
		ea, eb := a.Embed(x), b.Embed(x)
		if len(ea) != len(eb) {
			t.Fatalf("dims %d vs %d", len(ea), len(eb))
		}
		for i := range ea {
			if ea[i] != eb[i] {
				t.Fatalf("trial %d dim %d: %v vs %v — restored embedder not bitwise identical", trial, i, ea[i], eb[i])
			}
		}
	}
}

func TestSnapshotRoundTripPretrained(t *testing.T) {
	orig := NewPretrained(52, 16, 3)
	s, err := NewSnapshot(orig)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := roundTrip(t, s).Embedder()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "pretrained" || restored.Dim() != 16 {
		t.Fatalf("restored %q dim %d", restored.Name(), restored.Dim())
	}
	sameEmbedding(t, orig, restored, 52)
}

func TestSnapshotRoundTripTrained(t *testing.T) {
	net := nn.NewMLP(rand.New(rand.NewSource(5)), 20, 12, 8)
	orig := NewTrained(net)
	s, err := NewSnapshot(orig)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := roundTrip(t, s).Embedder()
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != "triplet-trained" || restored.Dim() != 8 {
		t.Fatalf("restored %q dim %d", restored.Name(), restored.Dim())
	}
	sameEmbedding(t, orig, restored, 20)
}

func TestSnapshotRejectsDamage(t *testing.T) {
	cases := []Snapshot{
		{Kind: "unknown"},
		{Kind: "pretrained", Rows: 0, Dim: 4},
		{Kind: "pretrained", Rows: 4, Dim: 4, Data: make([]float64, 3)}, // wrong backing length
		{Kind: "triplet-trained"}, // no network
		{Kind: "triplet-trained", Net: &nn.MLP{Sizes: []int{5}}},
		{Kind: "triplet-trained", Net: &nn.MLP{Sizes: []int{5, 3}, W: [][][]float64{{{1}}}, B: [][]float64{{0, 0, 0}}}},
	}
	for i, s := range cases {
		if _, err := s.Embedder(); err == nil {
			t.Errorf("case %d: damaged snapshot %+v accepted", i, s)
		}
	}
}
