package cluster

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func quantTestMatrix(t *testing.T, r *rand.Rand, rows, dim int) (vecmath.Matrix, vecmath.QuantMatrix) {
	t.Helper()
	data := make([]float64, rows*dim)
	for i := range data {
		data[i] = -2 + r.Float64()*4
	}
	m, err := vecmath.MatrixFromFlat(data, rows, dim)
	if err != nil {
		t.Fatalf("MatrixFromFlat: %v", err)
	}
	q, err := vecmath.QuantizeMatrix(m, vecmath.TrainQuantParams(m))
	if err != nil {
		t.Fatalf("QuantizeMatrix: %v", err)
	}
	return m, q
}

func sameTable(t *testing.T, got, want *Table) {
	t.Helper()
	if got.K != want.K {
		t.Fatalf("K: %d vs %d", got.K, want.K)
	}
	if len(got.Reps) != len(want.Reps) {
		t.Fatalf("reps: %d vs %d", len(got.Reps), len(want.Reps))
	}
	for i := range got.Reps {
		if got.Reps[i] != want.Reps[i] {
			t.Fatalf("rep %d: %d vs %d", i, got.Reps[i], want.Reps[i])
		}
	}
	if len(got.Neighbors) != len(want.Neighbors) {
		t.Fatalf("records: %d vs %d", len(got.Neighbors), len(want.Neighbors))
	}
	for i := range got.Neighbors {
		g, w := got.Neighbors[i], want.Neighbors[i]
		if len(g) != len(w) {
			t.Fatalf("record %d: %d vs %d neighbors", i, len(g), len(w))
		}
		for j := range g {
			if g[j].Rep != w[j].Rep || math.Float64bits(g[j].Dist) != math.Float64bits(w[j].Dist) {
				t.Fatalf("record %d neighbor %d: %+v vs %+v (bitwise mismatch)", i, j, g[j], w[j])
			}
		}
	}
}

// TestFPFMixedQuantBitwise: quantized mixed selection (SelectPar) must pick
// the exact same representatives from the same rand stream, and keep the
// exact same table, at every worker count.
func TestFPFMixedQuantBitwise(t *testing.T) {
	m, q := quantTestMatrix(t, rand.New(rand.NewSource(3)), 300, 12)
	float := SelectPar(rand.New(rand.NewSource(5)), m, vecmath.QuantMatrix{}, 30, 0.1, 3, 1)
	if float.Stats != (QuantScanStats{}) {
		t.Fatalf("float sweep counted %+v", float.Stats)
	}
	want := float.Table()
	sameTable(t, want, BuildTablePar(m, float.Reps, 3, 1))
	for _, p := range testWorkers {
		got := SelectPar(rand.New(rand.NewSource(5)), m, q, 30, 0.1, 3, p)
		if len(got.Reps) != len(float.Reps) {
			t.Fatalf("p=%d: %d reps vs %d", p, len(got.Reps), len(float.Reps))
		}
		for i := range got.Reps {
			if got.Reps[i] != float.Reps[i] {
				t.Fatalf("p=%d: rep %d is %d, want %d", p, i, got.Reps[i], float.Reps[i])
			}
		}
		if got.Stats.Candidates == 0 || got.Stats.Reranked >= got.Stats.Candidates {
			t.Fatalf("p=%d: implausible stats %+v", p, got.Stats)
		}
		sameTable(t, got.Table(), want)
	}
}

// TestAddRepresentativeQuantBitwise: cracking through the plane must leave
// the table bitwise identical to exact cracking.
func TestAddRepresentativeQuantBitwise(t *testing.T) {
	m, q := quantTestMatrix(t, rand.New(rand.NewSource(11)), 250, 8)
	reps := RandomReps(rand.New(rand.NewSource(2)), 250, 20)
	cracks := []int{5, 99, 200, 7, 123}
	for _, p := range testWorkers {
		exact := BuildTablePar(m, reps, 3, 1)
		quant := BuildTablePar(m, reps, 3, 1)
		for _, rep := range cracks {
			exact.AddRepresentativePar(m, rep, p)
			stats := quant.AddRepresentativeEmb(m, q, rep, m.Row(rep), p)
			if stats.Candidates != 250 {
				t.Fatalf("p=%d rep %d: candidates %d, want 250", p, rep, stats.Candidates)
			}
		}
		sameTable(t, quant, exact)
		// Re-adding an existing representative stays a no-op.
		if stats := quant.AddRepresentativeEmb(m, q, cracks[0], m.Row(cracks[0]), p); stats.Candidates != 0 {
			t.Fatalf("p=%d: re-add scanned %d candidates", p, stats.Candidates)
		}
	}
}
