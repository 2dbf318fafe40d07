package nn

import (
	"math/rand"
	"testing"
)

func BenchmarkForward(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	f := NewForwarder(NewMLP(r, 64, 160, 64))
	x := make([]float64, 64)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	dst := make([]float64, 64)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ForwardInto(dst, x)
	}
}

// BenchmarkStep is one minibatch step of the triplet trainer's shape: 32
// examples of three passes each through a 52-160-128 network.
func BenchmarkStep(b *testing.B) {
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "w1", 2: "w2"}[workers], func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			m := NewMLP(r, 52, 160, 128)
			xs := make([][]float64, 96)
			for i := range xs {
				xs[i] = make([]float64, 52)
				for j := range xs[i] {
					xs[i][j] = r.NormFloat64()
				}
			}
			tr := NewTrainer(m, NewAdam(1e-3), 32, 3, workers)
			defer tr.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr.Step(32, func(e int, ex *Example) {
					for s := 0; s < 3; s++ {
						out := ex.Forward(s, xs[3*e+s])
						copy(ex.Grad(s), out)
						ex.Backward(s)
					}
				})
			}
		})
	}
}
