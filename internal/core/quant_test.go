package core

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestBuildQuantBitwise is the plane's equivalence property: a build, whose
// FPF selection sweep prunes through the quantized plane, picks the
// representatives and keeps the neighbor lists, down to float bits, that
// cluster's float sweep (the zero plane) computes over the same embeddings,
// at every worker count. The plane only prunes exact work it can prove the
// exact path would discard.
func TestBuildQuantBitwise(t *testing.T) {
	ds, err := dataset.Generate("night-street", 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	configs := map[string]Config{
		"exact-table": PretrainedConfig(70, 5),
	}
	for name, base := range configs {
		t.Run(name, func(t *testing.T) {
			var float *Index
			for _, p := range []int{1, 2, 4} {
				quant := buildAt(t, base, ds, p)
				if quant.Quant.Rows() != quant.Embeddings.Rows() || quant.Quant.Dim() != quant.Embeddings.Dim() {
					t.Fatalf("p=%d: a %dx%d plane over %dx%d embeddings", p,
						quant.Quant.Rows(), quant.Quant.Dim(), quant.Embeddings.Rows(), quant.Embeddings.Dim())
				}
				if float == nil {
					sel := cluster.SelectPar(xrand.Split(base.Seed, "reps"), quant.Embeddings, vecmath.QuantMatrix{},
						base.NumReps, randomRepFraction, base.K, 1)
					float = &Index{Embeddings: quant.Embeddings, Table: sel.Table(), Stats: quant.Stats}
				}
				assertIndexesIdentical(t, float, quant, p)
			}
		})
	}
}
