package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/vecmath"
)

func TestNewMLPShapes(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	m := NewMLP(r, 5, 7, 3)
	if m.Sizes[0] != 5 || m.OutputDim() != 3 {
		t.Errorf("dims = %d, %d", m.Sizes[0], m.OutputDim())
	}
	out := NewForwarder(m).Forward(make([]float64, 5))
	if len(out) != 3 {
		t.Errorf("output len = %d", len(out))
	}
}

func TestNewMLPPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for _, sizes := range [][]int{{3}, {3, 0, 2}, {}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for sizes %v", sizes)
				}
			}()
			NewMLP(r, sizes...)
		}()
	}
}

func TestForwardPanicsOnBadInput(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(1)), 3, 2)
	defer func() {
		if recover() == nil {
			t.Error("no panic on wrong input dim")
		}
	}()
	NewForwarder(m).Forward([]float64{1})
}

// dotForward is the textbook forward pass — per unit, s = B[i]; for j:
// s += W[i][j]*x[j] — that the AXPY formulation must reproduce bit for bit.
func dotForward(m *MLP, x []float64) []float64 {
	cur := x
	for l := range m.W {
		out := make([]float64, len(m.W[l]))
		for i, row := range m.W[l] {
			s := m.B[l][i]
			for j, w := range row {
				s += float64(w * cur[j])
			}
			out[i] = s
		}
		if l < len(m.W)-1 {
			for i := range out {
				out[i] = math.Tanh(out[i])
			}
		}
		cur = out
	}
	return cur
}

func TestForwarderMatchesDotProductBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	// Shapes: no hidden layer, the three dataset input widths into the
	// default embedder, several hidden layers (activations ping-pong), and a
	// hidden layer wider than the stack buffer.
	for _, sizes := range [][]int{{3, 2}, {52, 160, 128}, {128, 160, 128}, {40, 160, 16}, {6, 9, 5, 7, 4}, {5, stackWidth + 3, 2}} {
		m := NewMLP(r, sizes...)
		for l := range m.B {
			for i := range m.B[l] {
				m.B[l][i] = r.NormFloat64()
			}
		}
		f := NewForwarder(m)
		x := make([]float64, sizes[0])
		into := make([]float64, m.OutputDim())
		for trial := 0; trial < 5; trial++ {
			for j := range x {
				x[j] = r.NormFloat64()
			}
			want := dotForward(m, x)
			got := f.Forward(x)
			f.ForwardInto(into, x)
			for i := range want {
				if math.Float64bits(got[i]) != math.Float64bits(want[i]) || math.Float64bits(into[i]) != math.Float64bits(want[i]) {
					t.Fatalf("sizes %v output %d: Forward %v, ForwardInto %v, dot product %v", sizes, i, got[i], into[i], want[i])
				}
			}
		}
	}
}

// TestForwardRowsMatchesForwardInto: the batched forward pass gives every
// row ForwardInto's bits, across the tile seam and for a batch of none.
func TestForwardRowsMatchesForwardInto(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	for _, sizes := range [][]int{{3, 2}, {52, 160, 64}, {6, 9, 5, 7, 4}} {
		m := NewMLP(r, sizes...)
		f := NewForwarder(m)
		for _, rows := range []int{0, 1, tileRows - 1, tileRows, 2*tileRows + 3} {
			xs := make([][]float64, rows)
			for i := range xs {
				xs[i] = make([]float64, sizes[0])
				for j := range xs[i] {
					xs[i][j] = 2 * r.NormFloat64()
				}
			}
			out := vecmath.NewMatrix(rows, m.OutputDim())
			f.ForwardRows(out, xs)
			want := make([]float64, m.OutputDim())
			for i := 0; i < rows; i++ {
				f.ForwardInto(want, xs[i])
				for j, v := range want {
					if math.Float64bits(out.Row(i)[j]) != math.Float64bits(v) {
						t.Fatalf("sizes %v rows %d: row %d output %d = %v, ForwardInto %v", sizes, rows, i, j, out.Row(i)[j], v)
					}
				}
			}
		}
	}
}

// TestForwardRowsReusesItsTiles: after the first call, a batched pass over
// a chunk of records allocates nothing but what the caller passes in (the
// scratch returns to the forwarder's pool).
func TestForwardRowsReusesItsTiles(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops buffers at random under -race")
	}
	f := NewForwarder(NewMLP(rand.New(rand.NewSource(4)), 52, 160, 64))
	xs := make([][]float64, 3*tileRows+1)
	for i := range xs {
		xs[i] = make([]float64, 52)
	}
	out := vecmath.NewMatrix(len(xs), 64)
	f.ForwardRows(out, xs)
	if allocs := testing.AllocsPerRun(20, func() { f.ForwardRows(out, xs) }); allocs > 0.5 {
		t.Errorf("ForwardRows allocates %v times per call", allocs)
	}
}

func TestForwarderIsASnapshot(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(4)), 2, 3, 1)
	f := NewForwarder(m)
	x := []float64{0.5, -1}
	before := f.Forward(x)[0]
	m.W[0][0][0] += 100
	m.B[1][0] += 100
	if got := f.Forward(x)[0]; got != before {
		t.Errorf("forwarder saw a later weight change: %v vs %v", got, before)
	}
	if got := NewForwarder(m).Forward(x)[0]; got == before {
		t.Error("rebuilt forwarder did not see the weight change")
	}
}

func TestForwardIntoDoesNotAllocate(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(4)), 52, 160, 128)
	f := NewForwarder(m)
	x := make([]float64, 52)
	dst := make([]float64, 128)
	if allocs := testing.AllocsPerRun(50, func() { f.ForwardInto(dst, x) }); allocs != 0 {
		t.Errorf("ForwardInto allocates %v times per call", allocs)
	}
}

// gradients runs a step's forward and example regions over rows and returns
// the summed (unscaled) parameter gradients the update region would fold.
func gradients(tr *Trainer, rows []int, n int, example func(e int, ex *Example)) (gw [][][]float64, gb [][]float64) {
	tr.forward(rows)
	tr.backprop(n, example)
	gw, gb = zerosLike(tr.net)
	for _, blk := range tr.blocks {
		w, b := tr.fold(0, blk)
		in := tr.net.Sizes[blk.l]
		for i := blk.lo; i < blk.hi; i++ {
			copy(gw[blk.l][i], w[(i-blk.lo)*in:][:in])
			gb[blk.l][i] = b[i-blk.lo]
		}
	}
	return gw, gb
}

// TestGradientCheck verifies the batched step's gradients against finite
// differences for a scalar loss L = sum(out_i * g_i) on a network with two
// hidden layers and more rows than one block.
func TestGradientCheck(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	m := NewMLP(r, 4, blockRows+3, 5, 3)
	x := make([]float64, 4)
	for i := range x {
		x[i] = r.NormFloat64()
	}
	gradOut := make([]float64, 3)
	for i := range gradOut {
		gradOut[i] = r.NormFloat64()
	}
	loss := func() float64 {
		out := NewForwarder(m).Forward(x)
		s := 0.0
		for i, v := range out {
			s += v * gradOut[i]
		}
		return s
	}

	tr := NewTrainer(m, NewAdam(1e-3), [][]float64{x}, 1, 1, 1)
	defer tr.Close()
	gw, gb := gradients(tr, []int{0}, 1, func(_ int, ex *Example) {
		copy(ex.Grad(0, 0), gradOut)
		ex.Backward(0)
	})

	const eps = 1e-6
	check := func(analytic float64, bump func(delta float64), what string) {
		bump(eps)
		up := loss()
		bump(-2 * eps)
		down := loss()
		bump(eps) // restore
		numeric := (up - down) / (2 * eps)
		if math.Abs(numeric-analytic) > 1e-4*(1+math.Abs(numeric)) {
			t.Errorf("%s: analytic %v vs numeric %v", what, analytic, numeric)
		}
	}

	for l := range m.W {
		for i := 0; i < len(m.W[l]); i += 2 {
			for j := 0; j < len(m.W[l][i]); j += 2 {
				check(gw[l][i][j], func(d float64) { m.W[l][i][j] += d }, "weight")
			}
		}
		for i := 0; i < len(m.B[l]); i += 2 {
			check(gb[l][i], func(d float64) { m.B[l][i] += d }, "bias")
		}
	}
}

// TestBackwardAccumulates checks that live passes sum into the batch
// gradient — across examples and across one example's slots — and that a
// pass without Backward contributes nothing.
func TestBackwardAccumulates(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := NewMLP(r, 3, 4, 2)
	x := []float64{1, -1, 0.5}
	g := []float64{1, 2}
	tr := NewTrainer(m, NewAdam(1e-3), [][]float64{x}, 3, 2, 2)
	defer tr.Close()
	rows := []int{0}
	pass := func(ex *Example, slot int) {
		copy(ex.Grad(slot, 0), g)
		ex.Backward(slot)
	}

	once, _ := gradients(tr, rows, 1, func(_ int, ex *Example) { pass(ex, 0) })
	if once[0][0][0] == 0 {
		t.Fatal("zero gradient makes the test vacuous")
	}
	twice, _ := gradients(tr, rows, 2, func(_ int, ex *Example) { pass(ex, 0) })
	if got, want := twice[0][0][0], 2*once[0][0][0]; math.Abs(got-want) > 1e-12 {
		t.Errorf("two examples: %v vs %v", got, want)
	}
	slots, _ := gradients(tr, rows, 1, func(_ int, ex *Example) { pass(ex, 0); pass(ex, 1) })
	if got, want := slots[0][0][0], 2*once[0][0][0]; math.Abs(got-want) > 1e-12 {
		t.Errorf("two slots: %v vs %v", got, want)
	}
	// Reading an output alone (a rejected candidate, a zero-loss example)
	// leaves the gradient untouched, and the flags reset between steps.
	mixed, _ := gradients(tr, rows, 3, func(e int, ex *Example) {
		ex.Output(0)
		if e == 1 {
			pass(ex, 0)
		}
	})
	if got, want := mixed[0][0][0], once[0][0][0]; got != want {
		t.Errorf("one live pass among three examples: %v vs %v", got, want)
	}
}

// TestStepWithoutActiveExamplesIsANoOp pins the empty-gradient contract: no
// weight moves and Adam's step count — which sets the bias correction of
// every later step — does not advance.
func TestStepWithoutActiveExamplesIsANoOp(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(8)), 3, 4, 2)
	before := m.Clone()
	opt := NewAdam(1e-2)
	tr := NewTrainer(m, opt, [][]float64{{1, 2, 3}}, 4, 1, 2)
	defer tr.Close()
	rows := []int{0}
	if active := tr.Step(rows, 4, func(_ int, ex *Example) { ex.Output(0) }); active != 0 {
		t.Fatalf("active = %d, want 0", active)
	}
	if opt.t != 0 {
		t.Errorf("Adam advanced to t=%d on an empty step", opt.t)
	}
	for l := range m.W {
		for i := range m.W[l] {
			for j := range m.W[l][i] {
				if m.W[l][i][j] != before.W[l][i][j] {
					t.Fatalf("weight [%d][%d][%d] moved on an empty step", l, i, j)
				}
			}
		}
	}
	if active := tr.Step(rows, 3, func(e int, ex *Example) {
		if e != 1 {
			ex.Grad(0, 0)[0] = 1
			ex.Backward(0)
		}
	}); active != 2 {
		t.Fatalf("active = %d, want 2", active)
	}
	if opt.t != 1 || m.W[0][0][0] == before.W[0][0][0] {
		t.Errorf("a step with active examples did not update: t=%d", opt.t)
	}
}

func TestCloneIndependence(t *testing.T) {
	m := NewMLP(rand.New(rand.NewSource(4)), 2, 3, 1)
	c := m.Clone()
	m.W[0][0][0] += 100
	if c.W[0][0][0] == m.W[0][0][0] {
		t.Error("clone shares weights")
	}
	m.B[0][0] += 100
	if c.B[0][0] == m.B[0][0] {
		t.Error("clone shares biases")
	}
}

// trainRegression fits y = 2x0 - x1 with the given worker count and returns
// the trained network and its final batch MSE.
func trainRegression(workers int) (*MLP, float64) {
	r := rand.New(rand.NewSource(5))
	m := NewMLP(r, 2, 8, 1)
	const iters, batch = 2000, 16
	xs := make([][]float64, iters*batch)
	for i := range xs {
		xs[i] = []float64{r.NormFloat64(), r.NormFloat64()}
	}
	tr := NewTrainer(m, NewAdam(1e-2), xs, batch, 1, workers)
	defer tr.Close()
	rows := make([]int, batch)
	sq := make([]float64, batch)
	var mse float64
	for iter := 0; iter < iters; iter++ {
		for b := range rows {
			rows[b] = iter*batch + b
		}
		tr.Step(rows, batch, func(e int, ex *Example) {
			x := xs[rows[e]]
			diff := ex.Output(rows[e])[0] - (2*x[0] - x[1])
			sq[e] = diff * diff
			ex.Grad(0, rows[e])[0] = diff
			ex.Backward(0)
		})
		mse = 0
		for _, v := range sq {
			mse += v / 16
		}
	}
	return m, mse
}

func TestAdamLearnsRegression(t *testing.T) {
	m, mse := trainRegression(1)
	if mse > 0.1 {
		t.Errorf("Adam final MSE = %v", mse)
	}
	// The forward pass the trainer keeps in step with the weights is the one
	// a fresh Forwarder computes from them.
	x := []float64{0.3, -0.7}
	if got, want := NewForwarder(m).Forward(x)[0], 2*x[0]-x[1]; math.Abs(got-want) > 0.5 {
		t.Errorf("trained net predicts %v for %v", got, want)
	}
}
