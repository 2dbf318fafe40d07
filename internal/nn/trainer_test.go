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
	tr := NewTrainer(m, NewAdam(1e-2), 8, 1, 4)
	defer tr.Close()
	inputs := [][]float64{make([]float64, 3)}
	defer func() {
		if recover() == nil {
			t.Error("a row out of range inside a step did not panic on the caller")
		}
	}()
	tr.Step(inputs, 8, func(e int, ex *Example) {
		ex.Grad(0, e%2) // odd examples ask for a row the step does not have
	})
}

// TestOutputRejectsRowsOfAnEarlierStep: a step smaller than an earlier one
// keeps the earlier step's activations past its own rows; reading them is
// a bug the trainer reports rather than serves.
func TestOutputRejectsRowsOfAnEarlierStep(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	tr := NewTrainer(m, NewAdam(1e-2), 2, 1, 1)
	defer tr.Close()
	tr.Step([][]float64{{1, 2, 3}, {4, 5, 6}}, 2, func(e int, ex *Example) { ex.Output(e) })
	defer func() {
		if recover() == nil {
			t.Error("no panic reading row 1 of a one-row step")
		}
	}()
	tr.Step([][]float64{{1, 2, 3}}, 1, func(_ int, ex *Example) { ex.Output(1) })
}

func TestStepRejectsWrongWidthInput(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	tr := NewTrainer(m, NewAdam(1e-2), 2, 1, 2)
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Error("no panic for an input row of the wrong width")
		}
	}()
	tr.Step([][]float64{make([]float64, 3), make([]float64, 4)}, 2, func(int, *Example) {})
}

func TestStepRejectsOversizedBatch(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	tr := NewTrainer(m, NewAdam(1e-2), 2, 1, 1)
	defer tr.Close()
	defer func() {
		if recover() == nil {
			t.Error("no panic for a batch larger than the trainer was sized for")
		}
	}()
	tr.Step(nil, 3, func(int, *Example) {})
}
