package nn

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"time"
)

func sameWeights(t *testing.T, what string, got, want *MLP) {
	t.Helper()
	for l := range want.W {
		for i := range want.W[l] {
			for j := range want.W[l][i] {
				if math.Float64bits(got.W[l][i][j]) != math.Float64bits(want.W[l][i][j]) {
					t.Fatalf("%s: W[%d][%d][%d] = %v, want %v", what, l, i, j, got.W[l][i][j], want.W[l][i][j])
				}
			}
			if math.Float64bits(got.B[l][i]) != math.Float64bits(want.B[l][i]) {
				t.Fatalf("%s: B[%d][%d] = %v, want %v", what, l, i, got.B[l][i], want.B[l][i])
			}
		}
	}
}

func TestTrainerWorkerCountInvariant(t *testing.T) {
	want, _ := trainRegression(1)
	for _, workers := range []int{2, 4, 7} {
		got, _ := trainRegression(workers)
		sameWeights(t, "regression", got, want)
	}
}

// TestConcurrentTrainersShareNothing runs several trainers at once (as
// concurrent index builds do): each must reach the weights it reaches alone.
func TestConcurrentTrainersShareNothing(t *testing.T) {
	want, _ := trainRegression(1)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got, _ := trainRegression(1 + g)
			sameWeights(t, "concurrent", got, want)
		}()
	}
	wg.Wait()
}

func TestTrainerCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	trainRegression(5)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines outlive the trainer (started with %d)", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestExamplePanicSurfacesOnCaller(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 4, 2)
	tr := NewTrainer(m, NewAdam(1e-2), [][]float64{make([]float64, 3), make([]float64, 3)}, 8, 1, 4)
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Error("a row the step does not list did not panic on the caller")
		}
	}()
	tr.Step([]int{0}, 8, func(e int, ex *Example) {
		ex.Grad(0, e%2) // odd examples ask for a row the step does not list
	})
}

// TestOutputRejectsRowsOfAnEarlierStep: a row an earlier step listed keeps
// its activations, current ones while no update comes between; reading
// them in a step that does not list the row is a bug the trainer reports
// rather than serves.
func TestOutputRejectsRowsOfAnEarlierStep(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	tr := NewTrainer(m, NewAdam(1e-2), [][]float64{{1, 2, 3}, {4, 5, 6}}, 2, 1, 1)
	defer tr.Close()
	tr.Step([]int{0, 1}, 2, func(e int, ex *Example) { ex.Output(e) })
	defer func() {
		if recover() == nil {
			t.Error("no panic reading row 1 in a step that lists only row 0")
		}
	}()
	tr.Step([]int{0}, 1, func(_ int, ex *Example) { ex.Output(1) })
}

func TestNewTrainerRejectsWrongWidthInput(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic for a training row of the wrong width")
		}
	}()
	NewTrainer(m, NewAdam(1e-2), [][]float64{make([]float64, 3), make([]float64, 4)}, 2, 1, 2).Close()
}

func TestStepRejectsRowOutOfRange(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	tr := NewTrainer(m, NewAdam(1e-2), [][]float64{make([]float64, 3)}, 2, 1, 1)
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Error("no panic listing a row past the training rows")
		}
	}()
	tr.Step([]int{0, 1}, 2, func(int, *Example) {})
}

func TestStepRejectsOversizedBatch(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	tr := NewTrainer(m, NewAdam(1e-2), nil, 2, 1, 1)
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Error("no panic for a batch larger than the trainer was sized for")
		}
	}()
	tr.Step(nil, 3, func(int, *Example) {})
}

// TestStoredActivationsMatchAFreshForward drives a seeded run of idle and
// active steps over rows that steps share and repeat. In every step, each
// output the examples read is a fresh Forwarder's at the step's weights;
// after every step, each row stamped current holds, layer by layer, what a
// forward pass at the new weights computes; and the trainer forwarded
// exactly the rows that a model of "an update makes every row stale"
// expects — no row twice under the same weights, none left stale.
func TestStoredActivationsMatchAFreshForward(t *testing.T) {
	const records, examples, steps = 24, 6, 80
	r := rand.New(rand.NewSource(11))
	xs := make([][]float64, records)
	for i := range xs {
		xs[i] = make([]float64, 5)
		for j := range xs[i] {
			xs[i][j] = r.NormFloat64()
		}
	}
	for _, workers := range []int{1, 2, 4} {
		r := rand.New(rand.NewSource(12))
		m := NewMLP(r, 5, 12, 7, 3)
		tr := NewTrainer(m, NewAdam(1e-2), xs, examples, 2, workers)
		fresh := make([]bool, records) // the model: rows forwarded since the last update
		idle, active, skipped := 0, 0, 0
		for s := 0; s < steps; s++ {
			// Each example reads two rows; the step lists them all,
			// repeats included, and goes active with probability 0.3.
			pairs := make([][2]int, examples)
			var rows []int
			for e := range pairs {
				pairs[e] = [2]int{r.Intn(records), r.Intn(records)}
				rows = append(rows, pairs[e][0], pairs[e][1])
			}
			update := r.Float64() < 0.3
			want := 0
			for _, row := range rows {
				if !fresh[row] {
					fresh[row] = true
					want++
				}
			}
			fw := NewForwarder(m)
			before := tr.ForwardedRows()
			got := tr.Step(rows, examples, func(e int, ex *Example) {
				for slot, row := range pairs[e] {
					out := ex.Output(row)
					ref := fw.Forward(xs[row])
					for i := range ref {
						if math.Float64bits(out[i]) != math.Float64bits(ref[i]) {
							t.Errorf("workers=%d step %d row %d: output[%d] = %v, fresh forward %v", workers, s, row, i, out[i], ref[i])
							return
						}
					}
					if update && e%2 == 0 {
						copy(ex.Grad(slot, row), out)
						ex.Backward(slot)
					}
				}
			})
			if forwarded := tr.ForwardedRows() - before; forwarded != want {
				t.Fatalf("workers=%d step %d forwarded %d rows, want %d", workers, s, forwarded, want)
			}
			if want == 0 {
				skipped++
			}
			if got > 0 {
				active++
				clear(fresh)
			} else {
				idle++
			}
			checkStored(t, tr, m, fresh)
		}
		tr.Close()
		if idle == 0 || active == 0 || skipped == 0 {
			t.Fatalf("workers=%d: %d idle, %d active steps, %d with nothing to forward: a case is not exercised", workers, idle, active, skipped)
		}
	}
}

// checkStored fails unless every row the trainer holds current — exactly
// the rows fresh marks — stores, per layer, forwardLayer's outputs at the
// network's present weights.
func checkStored(t *testing.T, tr *Trainer, m *MLP, fresh []bool) {
	t.Helper()
	wt := transpose(m)
	last := len(wt) - 1
	for row, x := range tr.inputs {
		if current := tr.stamp[row] == tr.version; current != fresh[row] {
			t.Fatalf("row %d current = %v, want %v", row, current, fresh[row])
		}
		if !fresh[row] {
			continue
		}
		in := x
		for l := range wt {
			out := make([]float64, m.Sizes[l+1])
			forwardLayer(wt[l], m.B[l], in, out, l < last)
			for i, v := range tr.acts[l+1].Row(row) {
				if math.Float64bits(v) != math.Float64bits(out[i]) {
					t.Fatalf("row %d layer %d unit %d stores %v, a forward pass computes %v", row, l, i, v, out[i])
				}
			}
			in = out
		}
	}
}

// TestStepDoesNotAllocate pins a step's allocation-free path: the regions'
// item functions are built once per trainer and the team reuses one
// region, so a step (active or idle) allocates nothing at one worker or
// two.
func TestStepDoesNotAllocate(t *testing.T) {
	const records, examples = 40, 8
	r := rand.New(rand.NewSource(5))
	inputs := make([][]float64, records)
	for i := range inputs {
		inputs[i] = make([]float64, 6)
		for j := range inputs[i] {
			inputs[i][j] = r.NormFloat64()
		}
	}
	rows := make([]int, examples)
	for _, workers := range []int{1, 2} {
		tr := NewTrainer(NewMLP(rand.New(rand.NewSource(1)), 6, 10, 3), NewAdam(1e-3), inputs, examples, 1, workers)
		step := 0
		example := func(e int, ex *Example) {
			if (step+e)%3 == 0 {
				copy(ex.Grad(0, rows[e]), ex.Output(rows[e]))
				ex.Backward(0)
			}
		}
		allocs := testing.AllocsPerRun(50, func() {
			step++
			for e := range rows {
				rows[e] = (step*examples + e*7) % records
			}
			tr.Step(rows, examples, example)
		})
		tr.Close()
		if allocs != 0 {
			t.Errorf("workers=%d: a step allocates %v times", workers, allocs)
		}
	}
}
