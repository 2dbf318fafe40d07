// Package embed defines embedding models: the maps from raw record features
// to the semantic vectors TASTI clusters and propagates over.
//
// Two implementations mirror the paper's TASTI-PT and TASTI-T variants:
// Pretrained is a fixed generic random-feature projection (the stand-in for
// an ImageNet ResNet or off-the-shelf BERT), and Trained wraps an MLP that
// package triplet fine-tunes with the domain-specific triplet loss.
package embed

import (
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/parallel"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Embedder maps raw record features to an embedding vector.
type Embedder interface {
	// Embed returns the embedding of one record's raw features.
	Embed(features []float64) []float64
	// Dim returns the embedding dimensionality.
	Dim() int
	// Name identifies the embedder ("pretrained" or "triplet-trained").
	Name() string
}

// Pretrained is a fixed random-feature embedder: a seeded Gaussian
// projection followed by tanh. It is semantically meaningful (nearby raw
// features stay nearby) but not adapted to any induced schema, exactly the
// role of a generic pre-trained DNN in the paper. The projection matrix is a
// contiguous vecmath.Matrix (one row per output dimension), so a forward
// pass is one DotBatch sweep.
type Pretrained struct {
	w vecmath.Matrix
}

// NewPretrained builds a random-feature embedder from inputDim to dim,
// deterministic in seed.
func NewPretrained(inputDim, dim int, seed int64) *Pretrained {
	if inputDim <= 0 || dim <= 0 {
		panic(fmt.Sprintf("embed: invalid dims %d -> %d", inputDim, dim))
	}
	r := xrand.Split(seed, "pretrained-embedder")
	w := vecmath.NewMatrix(dim, inputDim)
	scale := 1 / math.Sqrt(float64(inputDim))
	for i := 0; i < dim; i++ {
		row := w.Row(i)
		for j := range row {
			row[j] = r.NormFloat64() * scale
		}
	}
	return &Pretrained{w: w}
}

// Embed implements Embedder.
func (p *Pretrained) Embed(features []float64) []float64 {
	out := make([]float64, p.w.Rows())
	p.EmbedInto(out, features)
	return out
}

// EmbedInto embeds features into dst (len Dim()) without allocating, the
// fast path AllPar uses to fill a preallocated embedding matrix row.
func (p *Pretrained) EmbedInto(dst, features []float64) {
	if len(features) != p.w.Dim() {
		panic(fmt.Sprintf("embed: feature dim %d, want %d", len(features), p.w.Dim()))
	}
	vecmath.DotBatch(features, p.w, dst)
	vecmath.Tanh(dst, dst)
}

// Dim implements Embedder.
func (p *Pretrained) Dim() int { return p.w.Rows() }

// Name implements Embedder.
func (p *Pretrained) Name() string { return "pretrained" }

// Trained wraps a triplet-fine-tuned MLP as an Embedder. The network is
// what snapshots persist; the forward pass runs on a Forwarder derived from
// it at construction (and so again on every load).
type Trained struct {
	net *nn.MLP
	fw  *nn.Forwarder
}

// NewTrained wraps net, whose weights must be final.
func NewTrained(net *nn.MLP) *Trained {
	return &Trained{net: net, fw: nn.NewForwarder(net)}
}

// Embed implements Embedder.
func (t *Trained) Embed(features []float64) []float64 {
	return t.fw.Forward(features)
}

// EmbedInto embeds features into dst (len Dim()) without allocating.
func (t *Trained) EmbedInto(dst, features []float64) {
	t.fw.ForwardInto(dst, features)
}

// Dim implements Embedder.
func (t *Trained) Dim() int { return t.net.OutputDim() }

// Name implements Embedder.
func (t *Trained) Name() string { return "triplet-trained" }

// intoEmbedder is the optional allocation-free fast path: embedders that can
// write directly into a preallocated row implement it (both embedders of
// this package do).
type intoEmbedder interface {
	EmbedInto(dst, features []float64)
}

// Into embeds features into dst (len e.Dim()): in place when e has the
// EmbedInto fast path, by copy otherwise.
func Into(e Embedder, dst, features []float64) {
	if ie, ok := e.(intoEmbedder); ok {
		ie.EmbedInto(dst, features)
		return
	}
	copy(dst, e.Embed(features))
}

// AllPar embeds every record of ds on p workers (p <= 0 uses all CPUs) and
// returns the embeddings in record order as one contiguous matrix. Work
// goes out in chunks of records; a Trained embedder runs each chunk through
// its network's batched forward pass, any other embeds record by record.
// Records embed independently, so the output is identical at every p. The
// embedder must be safe for concurrent use; both implementations here are
// (their forward passes only read model weights).
func AllPar(e Embedder, ds *dataset.Dataset, p int) vecmath.Matrix {
	out := vecmath.NewMatrix(ds.Len(), e.Dim())
	tr, batched := e.(*Trained)
	parallel.ForChunks(p, ds.Len(), func(_ int, s parallel.Span) {
		if !batched {
			for i := s.Lo; i < s.Hi; i++ {
				Into(e, out.Row(i), ds.Records[i].Features)
			}
			return
		}
		xs := make([][]float64, s.Hi-s.Lo)
		for i := range xs {
			xs[i] = ds.Records[s.Lo+i].Features
		}
		tr.fw.ForwardRows(out.RowRange(s.Lo, s.Hi), xs)
	})
	return out
}
