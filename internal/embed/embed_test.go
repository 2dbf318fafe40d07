package embed

import (
	"math/rand"
	"testing"

	"repro/internal/dataset"
	"repro/internal/nn"
)

func TestPretrainedDeterministic(t *testing.T) {
	a := NewPretrained(10, 4, 7)
	b := NewPretrained(10, 4, 7)
	x := make([]float64, 10)
	for i := range x {
		x[i] = float64(i) * 0.1
	}
	ea, eb := a.Embed(x), b.Embed(x)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same seed gave different embeddings")
		}
	}
	c := NewPretrained(10, 4, 8)
	ec := c.Embed(x)
	same := true
	for i := range ea {
		if ea[i] != ec[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds gave identical embeddings")
	}
}

func TestPretrainedBounded(t *testing.T) {
	p := NewPretrained(6, 8, 1)
	r := rand.New(rand.NewSource(2))
	for trial := 0; trial < 50; trial++ {
		x := make([]float64, 6)
		for i := range x {
			x[i] = r.NormFloat64() * 10
		}
		for _, v := range p.Embed(x) {
			if v < -1 || v > 1 {
				t.Fatalf("tanh output out of range: %v", v)
			}
		}
	}
	if p.Dim() != 8 || p.Name() != "pretrained" {
		t.Error("metadata wrong")
	}
}

func TestPretrainedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for bad dims")
		}
	}()
	NewPretrained(0, 4, 1)
}

func TestPretrainedEmbedPanicsOnWrongDim(t *testing.T) {
	p := NewPretrained(4, 2, 1)
	defer func() {
		if recover() == nil {
			t.Error("no panic for wrong feature dim")
		}
	}()
	p.Embed([]float64{1, 2})
}

func TestTrained(t *testing.T) {
	net := nn.NewMLP(rand.New(rand.NewSource(3)), 5, 6, 3)
	e := NewTrained(net)
	if e.Dim() != 3 || e.Name() != "triplet-trained" {
		t.Error("metadata wrong")
	}
	x := []float64{0.5, -1, 2, 0, 1.5}
	out := e.Embed(x)
	into := make([]float64, 3)
	e.EmbedInto(into, x)
	want := nn.NewForwarder(net).Forward(x)
	for i := range out {
		if out[i] != want[i] || into[i] != want[i] {
			t.Error("Embed/EmbedInto differ from the network's forward pass")
		}
	}
}

// opaque hides an embedder's EmbedInto fast path.
type opaque struct{ Embedder }

// TestIntoAndAllParFastPath: both embedders fill rows in place without
// allocating, an embedder without the fast path is copied in, and all three
// routes give the same matrix.
func TestIntoAndAllParFastPath(t *testing.T) {
	ds, err := dataset.Generate("night-street", 300, 1)
	if err != nil {
		t.Fatal(err)
	}
	net := nn.NewMLP(rand.New(rand.NewSource(3)), ds.FeatureDim(), 160, 32)
	for _, e := range []Embedder{NewTrained(net), NewPretrained(ds.FeatureDim(), 32, 4)} {
		dst := make([]float64, e.Dim())
		x := ds.Records[7].Features
		if allocs := testing.AllocsPerRun(20, func() { Into(e, dst, x) }); allocs != 0 {
			t.Errorf("%s: Into allocates %v times per record", e.Name(), allocs)
		}
		fast, slow := AllPar(e, ds, 2), AllPar(opaque{e}, ds, 1)
		for i := 0; i < ds.Len(); i++ {
			want := e.Embed(ds.Records[i].Features)
			for j := range want {
				if fast.Row(i)[j] != want[j] || slow.Row(i)[j] != want[j] {
					t.Fatalf("%s record %d dim %d: in-place %v, copied %v, Embed %v", e.Name(), i, j, fast.Row(i)[j], slow.Row(i)[j], want[j])
				}
			}
		}
	}
}

func TestAllMatchesSequential(t *testing.T) {
	ds, err := dataset.Generate("night-street", 500, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPretrained(ds.FeatureDim(), 16, 4)
	parallel := AllPar(p, ds, 0)
	if parallel.Rows() != ds.Len() {
		t.Fatalf("got %d embeddings", parallel.Rows())
	}
	for i := 0; i < ds.Len(); i += 37 {
		want := p.Embed(ds.Records[i].Features)
		for j := range want {
			if parallel.Row(i)[j] != want[j] {
				t.Fatalf("record %d dim %d: parallel differs from sequential", i, j)
			}
		}
	}
}
