package vecmath

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// Kernel micro-benchmarks: the single-row form measures the kernel's
// in-cache throughput (call overhead included), the batch form measures the
// streaming bandwidth the FPF and table sweeps actually see. Comparing the
// two MB/s numbers shows whether a build is compute- or bandwidth-bound on
// the machine at hand.

func BenchmarkSqL2Kernel128(b *testing.B) {
	q := make([]float64, 128)
	r := make([]float64, 128)
	for i := range q {
		q[i] = float64(i)
		r[i] = float64(i) * 0.5
	}
	b.SetBytes(128 * 8 * 2)
	var s float64
	for i := 0; i < b.N; i++ {
		s += SquaredL2(q, r)
	}
	_ = s
}

func BenchmarkSqL2Batch128(b *testing.B) {
	m := NewMatrix(600, 128)
	q := make([]float64, 128)
	dst := make([]float64, 600)
	for i := range q {
		q[i] = float64(i)
	}
	b.SetBytes(600 * 128 * 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SquaredL2Batch(q, m, dst)
	}
}

// The nn forward pass's two kernels at the triplet embedder's shape: the
// 52→160 hidden layer over a batch of 80 rows, tiled (DenseRows) and row by
// row (AXPYRows), and its 160 tanh activations per row, four lanes at a time
// (Tanh) and one call each (math.Tanh).

var benchSink float64

func denseBenchData() (out, x Matrix, w, b []float64) {
	r := xrand.New(1)
	x = NewMatrix(80, 52)
	for i := range x.Data() {
		x.Data()[i] = r.NormFloat64()
	}
	w = make([]float64, 52*160)
	for i := range w {
		w[i] = r.NormFloat64()
	}
	return NewMatrix(80, 160), x, w, make([]float64, 160)
}

func BenchmarkDenseRows(b *testing.B) {
	out, x, w, bias := denseBenchData()
	b.SetBytes(int64(len(w) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		DenseRows(out, x, w, bias)
	}
	benchSink = out.Data()[0]
}

func BenchmarkDenseRowsByRow(b *testing.B) {
	out, x, w, bias := denseBenchData()
	b.SetBytes(int64(len(w) * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for r := 0; r < x.Rows(); r++ {
			copy(out.Row(r), bias)
			AXPYRows(out.Row(r), x.Row(r), w)
		}
	}
	benchSink = out.Data()[0]
}

func tanhBenchData() []float64 {
	r := xrand.New(2)
	xs := make([]float64, 160)
	for i := range xs {
		xs[i] = 2 * r.NormFloat64()
	}
	return xs
}

func BenchmarkTanh(b *testing.B) {
	xs, dst := tanhBenchData(), make([]float64, 160)
	for i := 0; i < b.N; i++ {
		Tanh(dst, xs)
	}
	benchSink = dst[0]
}

func BenchmarkMathTanh(b *testing.B) {
	xs, dst := tanhBenchData(), make([]float64, 160)
	for i := 0; i < b.N; i++ {
		for j, v := range xs {
			dst[j] = math.Tanh(v)
		}
	}
	benchSink = dst[0]
}
