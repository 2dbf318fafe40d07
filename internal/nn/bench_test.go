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
// examples of three passes each, whose records are drawn uniformly (a step
// lists about 82 distinct rows for its 96 passes).
//
//   - w1, w2: every step is active, a quarter of its examples
//     back-propagating, so every step's rows are stale and forwarded — the
//     cost of a step when training moves the weights each time;
//   - fit_w1, fit_w2: the activity of a real fit at the benchmark's
//     config (taipei 20k, 300 FPF-mined labels), where most triplets meet
//     the margin: 3165 of 4000 steps idle, 558 with one active example,
//     the rest with a quarter of them. An idle step after an idle step
//     forwards nothing; the bookkeeping that tells is in every step.
func BenchmarkStep(b *testing.B) {
	const records, examples, passes, steps = 300, 32, 3, 4000
	r := rand.New(rand.NewSource(1))
	feats := make([][]float64, records)
	for i := range feats {
		feats[i] = make([]float64, 52)
		for j := range feats[i] {
			feats[i][j] = r.NormFloat64()
		}
	}
	// Per step, the training row each pass reads, and how many examples
	// of the fit's activity back-propagate (0: idle; 1; or every fourth).
	type step struct {
		rows   [examples * passes]int
		active int
	}
	draws := make([]step, steps)
	for s := range draws {
		for i := range draws[s].rows {
			draws[s].rows[i] = r.Intn(records)
		}
		switch u := r.Intn(4000); {
		case u < 3165:
		case u < 3165+558:
			draws[s].active = 1
		default:
			draws[s].active = examples / 4
		}
	}
	for _, c := range []struct {
		name    string
		workers int
		fit     bool
	}{{"w1", 1, false}, {"w2", 2, false}, {"fit_w1", 1, true}, {"fit_w2", 2, true}} {
		b.Run(c.name, func(b *testing.B) {
			m := NewMLP(rand.New(rand.NewSource(1)), 52, 160, 64)
			tr := NewTrainer(m, NewAdam(1e-3), feats, examples, passes, c.workers)
			defer tr.Close()
			var d *step
			example := func(e int, ex *Example) {
				if c.fit && e >= d.active || !c.fit && e%4 != 0 {
					return
				}
				for s := 0; s < passes; s++ {
					row := d.rows[passes*e+s]
					copy(ex.Grad(s, row), ex.Output(row))
					ex.Backward(s)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				d = &draws[i%steps]
				tr.Step(d.rows[:], examples, example)
			}
			b.ReportMetric(float64(tr.ForwardedRows())/float64(b.N), "rows/op")
		})
	}
}
