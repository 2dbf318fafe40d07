package cluster

import (
	"testing"

	"repro/internal/vecmath"
)

// TestScannerZeroAllocWarm pins the steady-state contract of the min-k scan:
// a warm Scanner writing into a caller-provided destination allocates
// nothing per record. BuildTablePar and AppendRecords rely on this to keep
// per-record cost at pure kernel work.
func TestScannerZeroAllocWarm(t *testing.T) {
	emb := benchEmbeddings(400, 32)
	reps := FPFPar(emb, 50, 0, 0)
	repMat := vecmath.GatherRows(emb, reps)
	const k = 5
	var sc Scanner
	dst := make([]Neighbor, 0, k)
	q := emb.Row(123)
	sc.ScanInto(dst, q, repMat, reps, k) // warm-up: sizes the scratch
	if n := testing.AllocsPerRun(100, func() {
		sc.ScanInto(dst, q, repMat, reps, k)
	}); n != 0 {
		t.Errorf("warm Scanner allocates %v per scan", n)
	}
}

// TestScannerMatchesBuildTable pins that a standalone scan returns exactly
// the row BuildTable computes for the same record.
func TestScannerMatchesBuildTable(t *testing.T) {
	emb := benchEmbeddings(300, 16)
	reps := FPFPar(emb, 40, 0, 0)
	table := BuildTablePar(emb, reps, 4, 0)
	repMat := vecmath.GatherRows(emb, reps)
	var sc Scanner
	for i := 0; i < emb.Rows(); i += 29 {
		row := sc.ScanInto(make([]Neighbor, 0, 4), emb.Row(i), repMat, reps, 4)
		if len(row) != len(table.Neighbors[i]) {
			t.Fatalf("record %d: %d neighbors, table %d", i, len(row), len(table.Neighbors[i]))
		}
		for j, nb := range table.Neighbors[i] {
			if row[j] != nb {
				t.Fatalf("record %d neighbor %d: %+v, table %+v", i, j, row[j], nb)
			}
		}
	}
}
