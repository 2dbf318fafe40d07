// Package nn is the minimal deep-learning substrate the reproduction needs:
// a multi-layer perceptron (MLP), its forward pass (Forwarder) and a batched
// minibatch Adam step with manual backpropagation (Trainer). It stands in
// for the paper's ResNet-18/BERT embedding DNNs and the "tiny
// ResNet"/CNN-10 per-query proxy models, which are gated behind GPU
// inference we do not have.
//
// Every inner loop — forward, gradient accumulation, back-propagated deltas
// — is the vecmath.AXPY operation (a forward layer over a batch of rows is
// vecmath.DenseRows, per row the same operations), whose product is rounded
// before its add on both the assembly and the portable path, and no loop
// combines floats across work items, so a network's outputs and trained
// weights do not depend on which AXPY kernel is dispatched to or on the
// worker count. They do depend on the host through tanh: math.Exp, and so
// math.Tanh, takes a fused multiply-add path where the CPU has FMA and
// GODEBUG does not turn it off, and rounds some values differently there.
// vecmath.Tanh is bitwise whichever math.Tanh the process has.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// MLP is a fully connected network with tanh hidden activations and a linear
// output layer.
type MLP struct {
	// Sizes are the layer widths, input first, output last.
	Sizes []int
	// W[l][i][j] is the weight from input j to unit i of layer l.
	W [][][]float64
	// B[l][i] is the bias of unit i of layer l.
	B [][]float64
}

// NewMLP constructs an MLP with the given layer sizes (at least input and
// output) and Xavier-style initialization from r.
func NewMLP(r *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic(fmt.Sprintf("nn: MLP needs at least 2 layer sizes, got %d", len(sizes)))
	}
	for _, s := range sizes {
		if s <= 0 {
			panic(fmt.Sprintf("nn: MLP layer sizes must be positive, got %v", sizes))
		}
	}
	m := &MLP{Sizes: append([]int(nil), sizes...)}
	for l := 1; l < len(sizes); l++ {
		in, out := sizes[l-1], sizes[l]
		scale := math.Sqrt(2.0 / float64(in+out))
		w := make([][]float64, out)
		for i := range w {
			row := make([]float64, in)
			for j := range row {
				row[j] = r.NormFloat64() * scale
			}
			w[i] = row
		}
		m.W = append(m.W, w)
		m.B = append(m.B, make([]float64, out))
	}
	return m
}

// OutputDim returns the output width.
func (m *MLP) OutputDim() int { return m.Sizes[len(m.Sizes)-1] }

// Clone returns a deep copy of the network.
func (m *MLP) Clone() *MLP {
	c := &MLP{Sizes: append([]int(nil), m.Sizes...)}
	for l := range m.W {
		w := make([][]float64, len(m.W[l]))
		for i := range w {
			w[i] = append([]float64(nil), m.W[l][i]...)
		}
		c.W = append(c.W, w)
		c.B = append(c.B, append([]float64(nil), m.B[l]...))
	}
	return c
}
