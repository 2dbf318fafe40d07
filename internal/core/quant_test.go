package core

import (
	"testing"

	"repro/internal/dataset"
)

// TestBuildQuantBitwise is the tentpole equivalence property: with Quantize
// on, the built index — representatives, neighbor lists down to float bits,
// and propagated scores — is identical to the float-only build at every
// worker count. The quantized plane only prunes exact work it can prove the
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
			exact := buildAt(t, base, ds, 1)
			if exact.Quant.Enabled() {
				t.Fatal("float-only build has a quantized plane")
			}
			for _, p := range []int{1, 2, 4} {
				qcfg := base
				qcfg.Quantize = true
				quant := buildAt(t, qcfg, ds, p)
				assertIndexesIdentical(t, exact, quant, p)
				if !quant.Quant.Enabled() {
					t.Fatalf("p=%d: Quantize build has no plane", p)
				}
				if quant.Quant.Rows() != quant.Embeddings.Rows() {
					t.Fatalf("p=%d: plane has %d rows, embeddings %d", p, quant.Quant.Rows(), quant.Embeddings.Rows())
				}
				// uint8 codes vs float64 rows: the scan plane is 8x smaller.
				floatBytes := 8 * quant.Embeddings.Rows() * quant.Embeddings.Dim()
				if ratio := float64(floatBytes) / float64(quant.Quant.Bytes()); ratio < 4 {
					t.Fatalf("p=%d: compression ratio %.1fx, want >= 4x", p, ratio)
				}
				se, err := exact.Propagate(CountScore("car"))
				if err != nil {
					t.Fatal(err)
				}
				sq, err := quant.Propagate(CountScore("car"))
				if err != nil {
					t.Fatal(err)
				}
				for i := range se {
					if sq[i] != se[i] {
						t.Fatalf("p=%d: score[%d] = %v, exact %v", p, i, sq[i], se[i])
					}
				}
			}
		})
	}
}
