package core

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
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
		"exact-table":  PretrainedConfig(70, 5),
		"approx-table": func() Config { c := PretrainedConfig(70, 5); c.ApproxTable = true; return c }(),
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

// TestQuantSaveLoadRoundTrip: the v3 embeddings.quant frame round-trips the
// plane — params, decode-error bound, and every code byte — and the restored
// plane scans: a table built through it is the original's, bit for bit.
func TestQuantSaveLoadRoundTrip(t *testing.T) {
	cfg := PretrainedConfig(40, 6)
	cfg.Quantize = true
	ix, _, _ := buildTestIndex(t, cfg, "night-street", 400)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !got.Quant.Enabled() {
		t.Fatal("loaded index lost the quantized plane")
	}
	if got.Quant.Rows() != ix.Quant.Rows() || got.Quant.Dim() != ix.Quant.Dim() {
		t.Fatalf("loaded plane %dx%d, want %dx%d", got.Quant.Rows(), got.Quant.Dim(), ix.Quant.Rows(), ix.Quant.Dim())
	}
	if got.Quant.MaxErr() != ix.Quant.MaxErr() {
		t.Fatalf("loaded MaxErr %v, want %v", got.Quant.MaxErr(), ix.Quant.MaxErr())
	}
	wantP, gotP := ix.Quant.Params(), got.Quant.Params()
	for d := range wantP.Scale {
		if gotP.Scale[d] != wantP.Scale[d] || gotP.Offset[d] != wantP.Offset[d] {
			t.Fatalf("params differ at dim %d", d)
		}
	}
	wantCodes, gotCodes := ix.Quant.Codes(), got.Quant.Codes()
	if len(gotCodes) != len(wantCodes) {
		t.Fatalf("loaded %d code bytes, want %d", len(gotCodes), len(wantCodes))
	}
	for i := range wantCodes {
		if gotCodes[i] != wantCodes[i] {
			t.Fatalf("code byte %d differs", i)
		}
	}
	// The restored plane is functional: a table scanned through it matches
	// the original's.
	table, _ := cluster.BuildTableQuantPar(got.Embeddings, got.Quant, got.Table.Reps, got.Table.K, 1)
	got.Table = table
	assertIndexesIdentical(t, ix, got, 1)
}

// TestQuantFrameAbsentLoadsDisabled: a snapshot written without the plane
// (any pre-v3 file) loads with Quant disabled and stays fully usable.
func TestQuantFrameAbsentLoadsDisabled(t *testing.T) {
	ix, _, _ := buildTestIndex(t, PretrainedConfig(30, 3), "night-street", 300)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Quant.Enabled() {
		t.Fatal("plane enabled on a snapshot that never carried one")
	}
	if _, err := got.Propagate(CountScore("car")); err != nil {
		t.Fatal(err)
	}
}
