package cluster

import (
	"fmt"
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

// BenchmarkAddRepresentativeAtScale prices one crack — the one-to-many
// add-representative sweep — at one worker over 200k and 1M 64-dim records
// against an 800-representative table, on the float and the quantized
// plane: the measurement that decides whether the plane pays for cracks.
//
//	go test -bench BenchmarkAddRepresentativeAtScale -run '^$' -timeout 30m ./internal/cluster
func BenchmarkAddRepresentativeAtScale(b *testing.B) {
	for _, n := range []int{200_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			emb := benchEmbeddings(n, 64)
			quant, err := vecmath.QuantizeMatrix(emb, vecmath.TrainQuantParams(emb))
			if err != nil {
				b.Fatal(err)
			}
			base := BuildTablePar(emb, RandomReps(xrand.New(2), n, 800), 5, 0)
			for _, plane := range []struct {
				name  string
				quant vecmath.QuantMatrix
			}{{"float", vecmath.QuantMatrix{}}, {"quant", quant}} {
				b.Run("plane="+plane.name, func(b *testing.B) {
					table := *base
					table.Reps = append([]int(nil), base.Reps...)
					table.Neighbors = append([][]Neighbor(nil), base.Neighbors...)
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						rep := (i * 7919) % n // distinct for b.N < n, since 7919 is prime
						table.AddRepresentativeEmb(emb, plane.quant, rep, emb.Row(rep), 1)
					}
				})
			}
		})
	}
}
