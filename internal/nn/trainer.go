package nn

import (
	"fmt"
	"math"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// Adam holds the Adam optimizer's hyperparameters (Kingma & Ba, 2015) and,
// once a Trainer has stepped with it, its moment estimates.
type Adam struct {
	// LR is the learning rate.
	LR float64
	// Beta1, Beta2 are the moment decay rates.
	Beta1, Beta2 float64
	// Eps is the numerical-stability constant.
	Eps float64

	t      int
	mW, vW [][][]float64
	mB, vB [][]float64
}

// NewAdam returns an Adam optimizer with the usual defaults
// (β1=0.9, β2=0.999, ε=1e-8) for the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8}
}

// update applies one Adam update to the parameters w given their gradients
// g and moment estimates m and v; c1 and c2 are the step's bias corrections.
// Every product is rounded before its add (float64(x*y)), so no compiler may
// fuse it into a multiply-add and the update is the same bits on every host.
func (a *Adam) update(w, g, m, v []float64, c1, c2 float64) {
	for j := range w {
		m[j] = float64(a.Beta1*m[j]) + float64((1-a.Beta1)*g[j])
		v[j] = float64(a.Beta2*v[j]) + float64((1-a.Beta2)*g[j]*g[j])
		mHat := m[j] / c1
		vHat := v[j] / c2
		w[j] -= a.LR * mHat / (math.Sqrt(vHat) + a.Eps)
	}
}

// zerosLike allocates zeroed arrays in the shape of m's weights and biases.
func zerosLike(m *MLP) (w [][][]float64, b [][]float64) {
	for l := range m.W {
		rows := make([][]float64, len(m.W[l]))
		for i := range rows {
			rows[i] = make([]float64, len(m.W[l][i]))
		}
		w = append(w, rows)
		b = append(b, make([]float64, len(m.B[l])))
	}
	return w, b
}

// blockRows is how many parameter rows (units of one layer) one work item
// of the update region covers: enough that a block's gradient rows and one
// pass's activations stay in L1 together while the block folds the batch.
const blockRows = 8

// rowBlock is units [lo, hi) of layer l.
type rowBlock struct{ l, lo, hi int }

// pass is one example's use of a training row for back-propagation: row is
// the input whose stored activations (shared by every pass that reads the
// same row) it differentiates through, and delta[l] is the loss gradient at
// layer l's pre-activation, the pass's own, filled by Backward.
type pass struct {
	row   int
	delta [][]float64
	live  bool
}

// Example is one training example's scratch inside a Step: a fixed number
// of pass slots, each of which Grad binds to one of the step's rows and
// which, once Backward is called on it, holds that pass's contribution to
// the batch gradient. An Example is handed to the step's callback and must
// not be retained.
type Example struct {
	t      *Trainer
	passes []pass
}

// Output returns the network output for training row row, one the step
// lists (valid until the step ends; do not modify it). Its activations are
// current before the first callback runs, so reading a row costs nothing
// and several examples may read the same one.
func (ex *Example) Output(row int) []float64 {
	ex.t.checkRow(row)
	return ex.t.acts[len(ex.t.acts)-1].Row(row)
}

// Grad binds slot to training row row, one the step lists, and returns the
// slot's output-gradient buffer (len OutputDim), zeroed, for the caller to
// fill with dLoss/dOutput at that row before calling Backward.
func (ex *Example) Grad(slot, row int) []float64 {
	ex.t.checkRow(row)
	p := &ex.passes[slot]
	p.row = row
	g := p.delta[len(p.delta)-1]
	clear(g)
	return g
}

// Backward back-propagates the gradient in slot's Grad buffer through the
// network at the slot's row and marks the pass as part of the batch
// gradient. Passes join the gradient in example order, and within an
// example in slot order; an example with no Backward call is inactive and
// does not count towards the batch mean.
func (ex *Example) Backward(slot int) {
	p := &ex.passes[slot]
	p.live = true
	w := ex.t.net.W
	for l := len(w) - 1; l >= 1; l-- {
		// Through layer l's weights, then through the tanh of layer l-1:
		// d/dz tanh(z) = 1 - tanh(z)^2, and acts[l] stores tanh(z).
		prev := p.delta[l-1]
		clear(prev)
		for i, row := range w[l] {
			vecmath.AXPY(prev, p.delta[l][i], row)
		}
		a := ex.t.acts[l].Row(p.row)
		for j := range prev {
			prev[j] *= 1 - float64(a[j]*a[j])
		}
	}
}

// Trainer runs minibatch Adam steps on one MLP over a fixed set of training
// rows, with a team of workers, and produces the same weights bit for bit
// at every team size.
//
// It keeps every layer's activations for each training row, stamped with
// the weight version they were computed under; the version moves exactly
// when an update moves the weights. A row's activations depend only on its
// input and the weights, so a stored row whose stamp is current is the bits
// a forward pass would compute again, and a step forwards only its stale
// rows. (A step with no active example leaves the weights, and so every
// stamp, as they were.)
//
// A step has up to three parallel regions, and no float is ever combined
// across work items in any of them:
//
//   - over tiles of stale rows, skipped when the step lists none: a tile
//     gathers its rows' inputs, goes through the network (forwardRows) and
//     writes each row's activations back to that row alone;
//   - over examples: the caller's loss reads the outputs, and the deltas of
//     back-propagation read the weights and the stored activations; each
//     example writes only its own slots;
//   - over blocks of parameter rows (layer, unit), only on an active step:
//     gradient accumulation, the batch mean, weight decay and the Adam
//     update are elementwise per parameter, so each row folds the batch's
//     live passes in batch order — the addition sequence a
//     one-example-at-a-time loop performs on that element — and then
//     updates itself and its column of the transposed copy the forward
//     pass reads.
//
// A Trainer is for one goroutine; distinct Trainers share nothing. Close
// releases the team.
type Trainer struct {
	// WeightDecay is the L2 coefficient: WeightDecay*w joins each weight's
	// (not bias's) mean gradient. Zero disables it.
	WeightDecay float64

	net     *MLP
	opt     *Adam
	wt      [][]float64 // transposed weights, kept equal to net.W by every update
	team    *parallel.Team
	ex      []Example
	inputs  [][]float64        // the training rows
	acts    []vecmath.Matrix   // per layer l >= 1, each training row's outputs of layer l-1 (acts[0] is unused: inputs)
	version int                // the weights' version, moved by every update
	stamp   []int              // per row, the version its activations were computed under (0: never)
	step    int                // the current step's number
	listed  []int              // per row, the last step that listed it
	stale   []int              // the current step's rows to forward
	tiles   [][]vecmath.Matrix // per worker, one tile's gathered rows, per layer
	views   [][]vecmath.Matrix // per worker, the views of tiles a partial tile runs through
	live    []*pass            // the current step's live passes, in batch order
	blocks  []rowBlock         // every parameter row, the items of the update region
	scratch [][]float64        // per worker: blockRows gradient rows, then blockRows bias gradients
	fwd     int                // rows forwarded so far

	// The three regions' item functions, built once so a step hands the
	// team no new closure, and the per-step values they read.
	forwardItem, exampleItem, updateItem func(w, i int)
	example                              func(e int, ex *Example)
	scale, c1, c2                        float64
}

// NewTrainer prepares to train net with opt on the training rows inputs
// (len Sizes[0] each; the Trainer keeps them, do not modify them) in
// batches of up to examples examples, each making up to passes
// back-propagated passes, at parallelism p (p <= 0 uses all CPUs; never
// more workers than examples).
func NewTrainer(net *MLP, opt *Adam, inputs [][]float64, examples, passes, p int) *Trainer {
	for _, x := range inputs {
		checkInput(x, net.Sizes[0])
	}
	if opt.mW == nil {
		opt.mW, opt.mB = zerosLike(net)
		opt.vW, opt.vB = zerosLike(net)
	}
	t := &Trainer{net: net, opt: opt, wt: transpose(net), inputs: inputs, version: 1}
	t.forwardItem, t.exampleItem, t.updateItem = t.forwardTile, t.runExample, t.updateBlock
	t.team = parallel.NewTeam(min(parallel.Workers(p), examples))
	t.ex = make([]Example, examples)
	for e := range t.ex {
		t.ex[e] = Example{t: t, passes: make([]pass, passes)}
		for s := range t.ex[e].passes {
			ps := &t.ex[e].passes[s]
			ps.delta = make([][]float64, len(net.W))
			for l := range net.W {
				ps.delta[l] = make([]float64, net.Sizes[l+1])
			}
		}
	}
	t.acts = make([]vecmath.Matrix, len(net.Sizes))
	for l := 1; l < len(net.Sizes); l++ {
		t.acts[l] = vecmath.NewMatrix(len(inputs), net.Sizes[l])
	}
	t.stamp = make([]int, len(inputs))
	t.listed = make([]int, len(inputs))
	t.tiles = make([][]vecmath.Matrix, t.team.Workers())
	t.views = make([][]vecmath.Matrix, t.team.Workers())
	for w := range t.tiles {
		for _, width := range net.Sizes {
			t.tiles[w] = append(t.tiles[w], vecmath.NewMatrix(tileRows, width))
		}
		t.views[w] = make([]vecmath.Matrix, len(net.Sizes))
	}
	widest := 0
	for l, w := range net.W {
		widest = max(widest, net.Sizes[l])
		for lo := 0; lo < len(w); lo += blockRows {
			t.blocks = append(t.blocks, rowBlock{l: l, lo: lo, hi: min(lo+blockRows, len(w))})
		}
	}
	t.scratch = make([][]float64, t.team.Workers())
	for w := range t.scratch {
		t.scratch[w] = make([]float64, blockRows*(widest+1))
	}
	return t
}

// Close stops the trainer's workers; the trained weights are in the MLP.
func (t *Trainer) Close() { t.team.Close() }

// ForwardedRows returns how many rows the trainer's steps have run through
// the network so far: each step's rows whose activations the last update
// made stale (or that no step had forwarded yet).
func (t *Trainer) ForwardedRows() int { return t.fwd }

// Step runs one minibatch step over n examples and returns how many were
// active. rows are the training rows the step's examples read; a row
// listed twice counts once. The rows whose stored activations predate the
// current weights are forwarded, in parallel over tiles of rows, before
// any example runs. example(e, ex) is then called once per e in [0, n),
// concurrently for distinct e: it reads outputs (ex.Output), computes its
// loss, and for each pass the loss depends on fills ex.Grad and calls
// Backward (none, for an example with zero loss). The weights then move by
// Adam on the mean gradient over active examples; with none active nothing
// changes, Adam's step count and the stored activations included.
func (t *Trainer) Step(rows []int, n int, example func(e int, ex *Example)) int {
	t.forward(rows)
	active := t.backprop(n, example)
	if active == 0 {
		return 0
	}
	t.opt.t++
	t.c1 = 1 - math.Pow(t.opt.Beta1, float64(t.opt.t))
	t.c2 = 1 - math.Pow(t.opt.Beta2, float64(t.opt.t))
	t.scale = 1 / float64(active)
	t.team.Run(len(t.blocks), t.updateItem)
	t.version++
	return active
}

// updateBlock is the third region's item: fold block b's gradient and move
// its parameters.
func (t *Trainer) updateBlock(w, b int) {
	blk := t.blocks[b]
	gw, gb := t.fold(w, blk)
	t.apply(blk, gw, gb)
}

// forward is a step's first region: it lists the step's rows, and runs
// the stale ones through the network a tile at a time, each tile gathered
// into a worker's own matrices and its activations written back per row.
// DenseRows gives every row the same bits whichever tile, and whichever
// position in it, the row has.
func (t *Trainer) forward(rows []int) {
	t.step++
	t.stale = t.stale[:0]
	for _, r := range rows {
		if r < 0 || r >= len(t.inputs) {
			panic(fmt.Sprintf("nn: row %d of %d training rows", r, len(t.inputs)))
		}
		if t.listed[r] == t.step {
			continue
		}
		t.listed[r] = t.step
		if t.stamp[r] != t.version {
			t.stamp[r] = t.version
			t.stale = append(t.stale, r)
		}
	}
	if len(t.stale) == 0 {
		return
	}
	t.fwd += len(t.stale)
	t.team.Run((len(t.stale)+tileRows-1)/tileRows, t.forwardItem)
}

// forwardTile is the first region's item: tile i of the stale rows.
func (t *Trainer) forwardTile(w, i int) {
	rs := t.stale[i*tileRows : min((i+1)*tileRows, len(t.stale))]
	tile := t.views[w]
	for l, m := range t.tiles[w] {
		tile[l] = m.RowRange(0, len(rs))
	}
	for k, r := range rs {
		copy(tile[0].Row(k), t.inputs[r])
	}
	forwardRows(t.wt, t.net.B, tile)
	for l := 1; l < len(tile); l++ {
		for k, r := range rs {
			copy(t.acts[l].Row(r), tile[l].Row(k))
		}
	}
}

// checkRow panics unless row is one the current step lists (any other
// row's activations, current or not, are no input of this step).
func (t *Trainer) checkRow(row int) {
	if row < 0 || row >= len(t.inputs) || t.listed[row] != t.step {
		panic(fmt.Sprintf("nn: row %d is not listed by the step (%d training rows)", row, len(t.inputs)))
	}
}

// backprop is a step's second region: it runs the examples, collects their
// live passes in batch order, and returns the active-example count.
func (t *Trainer) backprop(n int, example func(e int, ex *Example)) int {
	if n > len(t.ex) {
		panic(fmt.Sprintf("nn: step of %d examples on a trainer sized for %d", n, len(t.ex)))
	}
	t.example = example
	t.team.Run(n, t.exampleItem)
	t.live = t.live[:0]
	active := 0
	for e := range t.ex[:n] {
		before := len(t.live)
		for s := range t.ex[e].passes {
			if p := &t.ex[e].passes[s]; p.live {
				t.live = append(t.live, p)
			}
		}
		if len(t.live) > before {
			active++
		}
	}
	return active
}

// runExample is the second region's item: example e of the step.
func (t *Trainer) runExample(_, e int) {
	ex := &t.ex[e]
	for s := range ex.passes {
		ex.passes[s].live = false
	}
	t.example(e, ex)
}

// input returns layer l's input at training row row: the row itself for
// the first layer, the stored activations of layer l-1 after it.
func (t *Trainer) input(l, row int) []float64 {
	if l == 0 {
		return t.inputs[row]
	}
	return t.acts[l].Row(row)
}

// fold sums the live passes' gradients for one block of rows into worker
// w's scratch: gw holds the block's weight-gradient rows back to back, gb
// its bias gradients. Passes are the outer loop so one pass's activations
// serve the whole block from L1; each row still sees the passes in order.
func (t *Trainer) fold(w int, blk rowBlock) (gw, gb []float64) {
	in, rows := t.net.Sizes[blk.l], blk.hi-blk.lo
	gw = t.scratch[w][:rows*in]
	gb = t.scratch[w][len(t.scratch[w])-blockRows:][:rows]
	clear(gw)
	clear(gb)
	for _, p := range t.live {
		x, d := t.input(blk.l, p.row), p.delta[blk.l][blk.lo:blk.hi]
		for r, di := range d {
			gb[r] += di
			vecmath.AXPY(gw[r*in:r*in+in], di, x)
		}
	}
	return gw, gb
}

// apply turns a block's gradient sums into the batch mean (plus weight
// decay), moves the block's parameters by Adam, and refreshes their column
// of the transposed copy.
func (t *Trainer) apply(blk rowBlock, gw, gb []float64) {
	l, in, out := blk.l, t.net.Sizes[blk.l], t.net.Sizes[blk.l+1]
	scale, c1, c2 := t.scale, t.c1, t.c2
	for j := range gw {
		gw[j] *= scale
	}
	for r := range gb {
		gb[r] *= scale
	}
	for i := blk.lo; i < blk.hi; i++ {
		r := i - blk.lo
		w, g := t.net.W[l][i], gw[r*in:r*in+in]
		if t.WeightDecay > 0 {
			vecmath.AXPY(g, t.WeightDecay, w)
		}
		t.opt.update(w, g, t.opt.mW[l][i], t.opt.vW[l][i], c1, c2)
	}
	// The block's rows are adjacent in every row of the transposed copy.
	for j := 0; j < in; j++ {
		col := t.wt[l][j*out+blk.lo : j*out+blk.hi]
		for r := range col {
			col[r] = t.net.W[l][blk.lo+r][j]
		}
	}
	t.opt.update(t.net.B[l][blk.lo:blk.hi], gb, t.opt.mB[l][blk.lo:blk.hi], t.opt.vB[l][blk.lo:blk.hi], c1, c2)
}
