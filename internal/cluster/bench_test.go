package cluster

import (
	"testing"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func benchEmbeddings(n, d int) vecmath.Matrix {
	r := xrand.New(1)
	out := vecmath.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		v := out.Row(i)
		for j := range v {
			v[j] = r.NormFloat64()
		}
	}
	return out
}

func BenchmarkFPF(b *testing.B) {
	emb := benchEmbeddings(5000, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FPFPar(emb, 100, 0, 0)
	}
}

func BenchmarkBuildTable(b *testing.B) {
	emb := benchEmbeddings(5000, 64)
	reps := FPFPar(emb, 200, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildTablePar(emb, reps, 5, 0)
	}
}

func BenchmarkAddRepresentative(b *testing.B) {
	emb := benchEmbeddings(5000, 64)
	table := BuildTablePar(emb, FPFPar(emb, 200, 0, 0), 5, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycle through non-representative IDs.
		table.AddRepresentativePar(emb, 300+i%4000, 0)
	}
}
