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

// BenchmarkStep is one minibatch step of the triplet trainer's shape at an
// index build's defaults: a 52-160-64 network, 300 training records, 32
// examples of three passes each. Passes draw their records uniformly, so a
// step forwards about 82 distinct rows for its 96 passes (the triplet
// sampler, drawing within buckets, repeats a little more), and a quarter
// of the examples back-propagate (most triplets have zero loss).
func BenchmarkStep(b *testing.B) {
	const records, examples, passes, steps = 300, 32, 3, 64
	r := rand.New(rand.NewSource(1))
	feats := make([][]float64, records)
	for i := range feats {
		feats[i] = make([]float64, 52)
		for j := range feats[i] {
			feats[i][j] = r.NormFloat64()
		}
	}
	// Each step's distinct input rows and, per pass, the row it reads.
	type step struct {
		inputs [][]float64
		rows   [examples * passes]int
	}
	draws := make([]step, steps)
	for s := range draws {
		rowOf := map[int]int{}
		for i := range draws[s].rows {
			id := r.Intn(records)
			if _, ok := rowOf[id]; !ok {
				rowOf[id] = len(draws[s].inputs)
				draws[s].inputs = append(draws[s].inputs, feats[id])
			}
			draws[s].rows[i] = rowOf[id]
		}
	}
	for _, workers := range []int{1, 2} {
		b.Run(map[int]string{1: "w1", 2: "w2"}[workers], func(b *testing.B) {
			m := NewMLP(rand.New(rand.NewSource(1)), 52, 160, 64)
			tr := NewTrainer(m, NewAdam(1e-3), examples, passes, workers)
			defer tr.Close()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d := &draws[i%steps]
				tr.Step(d.inputs, examples, func(e int, ex *Example) {
					if e%4 != 0 {
						return
					}
					for s := 0; s < passes; s++ {
						row := d.rows[passes*e+s]
						copy(ex.Grad(s, row), ex.Output(row))
						ex.Backward(s)
					}
				})
			}
		})
	}
}
