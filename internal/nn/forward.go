package nn

import (
	"fmt"
	"sync"

	"repro/internal/vecmath"
)

// transpose returns, per layer, the weights laid out input-major: element
// j*out+i of layer l is W[l][i][j]. A forward pass walks this copy so that a
// layer is one AXPYRows over all of its units at once,
//
//	out = bias; for j: out += x[j] * wt[j*out : (j+1)*out]
//
// which per unit i is the operation sequence of the textbook dot product
// s = B[i]; for j: s += W[i][j]*x[j] — same products, same adds, same order
// — without that loop's one-add-at-a-time dependency chain.
func transpose(m *MLP) [][]float64 {
	wt := make([][]float64, len(m.W))
	for l, w := range m.W {
		in, out := m.Sizes[l], m.Sizes[l+1]
		wt[l] = make([]float64, in*out)
		for i, row := range w {
			for j, v := range row {
				wt[l][j*out+i] = v
			}
		}
	}
	return wt
}

// forwardLayer writes one layer's output for input x into out (one element
// per bias): wt is the layer's transposed weights, and hidden layers apply
// tanh while the output layer stays linear.
func forwardLayer(wt, b, x, out []float64, hidden bool) {
	copy(out, b)
	vecmath.AXPYRows(out, x, wt)
	if hidden {
		vecmath.Tanh(out, out)
	}
}

// forwardRows runs the network over a batch of rows: acts[0] holds the
// inputs and acts[l+1] receives layer l's outputs, one row per input. Each
// layer is one row-tiled DenseRows over the batch, so its weights are read
// once per tile of rows rather than once per row; every output is bitwise
// forwardLayer's for that row.
func forwardRows(wt, b [][]float64, acts []vecmath.Matrix) {
	last := len(wt) - 1
	for l := range wt {
		vecmath.DenseRows(acts[l+1], acts[l], wt[l], b[l])
		if l < last {
			h := acts[l+1].Data()
			vecmath.Tanh(h, h)
		}
	}
}

// tileRows is how many rows one work item of a batched forward pass runs
// through the whole network: a multiple of DenseRows' four-row tile, and
// few enough that the tile's hidden activations stay in L1.
const tileRows = 8

// stackWidth is the hidden-layer width up to which ForwardInto keeps its
// activations on the goroutine stack (every network in this repository; the
// widest is the 160-unit triplet embedder).
const stackWidth = 256

// Forwarder runs forward passes of a network whose weights are final. It is
// a snapshot: it holds its own transposed copy of the weights (derived
// state, never serialized — rebuild it from a loaded MLP) and does not see
// later changes to the MLP. Safe for concurrent use.
type Forwarder struct {
	sizes []int
	wt    [][]float64
	b     [][]float64
	width int       // widest hidden layer
	tiles sync.Pool // *tileScratch for ForwardRows, so a corpus pass allocates none per call
}

// tileScratch is one ForwardRows call's working set: buf holds a tile's
// inputs and hidden activations (tileRows rows each), acts the views of the
// current tile that forwardRows reads and writes.
type tileScratch struct {
	buf, acts []vecmath.Matrix
}

// NewForwarder snapshots m's current weights for inference.
func NewForwarder(m *MLP) *Forwarder {
	f := &Forwarder{sizes: append([]int(nil), m.Sizes...), wt: transpose(m)}
	for l, b := range m.B {
		f.b = append(f.b, append([]float64(nil), b...))
		if l < len(m.B)-1 {
			f.width = max(f.width, len(b))
		}
	}
	return f
}

// Forward computes the network output for input x.
func (f *Forwarder) Forward(x []float64) []float64 {
	out := make([]float64, f.sizes[len(f.sizes)-1])
	f.ForwardInto(out, x)
	return out
}

// ForwardInto computes the network output for input x into dst (len
// OutputDim) without allocating.
func (f *Forwarder) ForwardInto(dst, x []float64) {
	checkInput(x, f.sizes[0])
	dst = dst[:f.sizes[len(f.sizes)-1]]
	var stack [2 * stackWidth]float64
	buf := stack[:]
	if f.width > stackWidth {
		buf = make([]float64, 2*f.width)
	}
	last := len(f.wt) - 1
	cur := x
	for l := range f.wt {
		out := dst
		if l < last {
			// Hidden activations ping-pong between the two halves.
			out = buf[(l&1)*f.width:][:f.sizes[l+1]]
		}
		forwardLayer(f.wt[l], f.b[l], cur, out, l < last)
		cur = out
	}
}

// ForwardRows computes the network output for each input row xs[r] into
// out.Row(r) (len(xs) rows of OutputDim), tileRows rows at a time, each
// bitwise ForwardInto's for that row.
func (f *Forwarder) ForwardRows(out vecmath.Matrix, xs [][]float64) {
	if out.Rows() != len(xs) || out.Dim() != f.sizes[len(f.sizes)-1] {
		panic(fmt.Sprintf("nn: %d inputs into %dx%d outputs, want width %d",
			len(xs), out.Rows(), out.Dim(), f.sizes[len(f.sizes)-1]))
	}
	sc, _ := f.tiles.Get().(*tileScratch)
	if sc == nil {
		sc = &tileScratch{acts: make([]vecmath.Matrix, len(f.sizes))}
		for _, width := range f.sizes[:len(f.sizes)-1] {
			sc.buf = append(sc.buf, vecmath.NewMatrix(tileRows, width))
		}
	}
	defer f.tiles.Put(sc)
	acts := sc.acts
	for lo := 0; lo < len(xs); lo += tileRows {
		hi := min(lo+tileRows, len(xs))
		for l, b := range sc.buf {
			acts[l] = b.RowRange(0, hi-lo)
		}
		for r, x := range xs[lo:hi] {
			checkInput(x, f.sizes[0])
			copy(acts[0].Row(r), x)
		}
		acts[len(acts)-1] = out.RowRange(lo, hi)
		forwardRows(f.wt, f.b, acts)
	}
}

func checkInput(x []float64, want int) {
	if len(x) != want {
		panic(fmt.Sprintf("nn: input dim %d, want %d", len(x), want))
	}
}
