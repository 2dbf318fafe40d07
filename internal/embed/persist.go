package embed

import (
	"fmt"

	"repro/internal/nn"
	"repro/internal/vecmath"
)

// Snapshot is the serializable form of an Embedder, so an index snapshot can
// carry its embedding model and a restarted process can keep appending
// records (core.Index.AppendRecords) with bitwise-identical embeddings.
// Exactly one of the payload groups is populated, selected by Kind — the
// Pretrained projection matrix in flat form, or the Trained network, whose
// fields are all exported and gob-encode directly.
type Snapshot struct {
	// Kind is the embedder's Name(): "pretrained" or "triplet-trained".
	Kind string
	// Rows, Dim, and Data hold the Pretrained projection matrix.
	Rows, Dim int
	Data      []float64
	// Net holds the Trained network.
	Net *nn.MLP
}

// NewSnapshot captures e's parameters. Embedders outside this package cannot
// be persisted and return an error rather than a silently lossy snapshot.
func NewSnapshot(e Embedder) (Snapshot, error) {
	switch t := e.(type) {
	case *Pretrained:
		return Snapshot{
			Kind: t.Name(),
			Rows: t.w.Rows(),
			Dim:  t.w.Dim(),
			Data: t.w.Data(),
		}, nil
	case *Trained:
		if t.net == nil {
			return Snapshot{}, fmt.Errorf("embed: trained embedder has no network")
		}
		return Snapshot{Kind: t.Name(), Net: t.net}, nil
	default:
		return Snapshot{}, fmt.Errorf("embed: cannot snapshot embedder %q", e.Name())
	}
}

// Embedder reconstructs the embedder, validating shapes before any of the
// decoded state is trusted — a damaged snapshot surfaces here as an error,
// never as a panic in a later forward pass.
func (s Snapshot) Embedder() (Embedder, error) {
	switch s.Kind {
	case "pretrained":
		if s.Rows <= 0 || s.Dim <= 0 {
			return nil, fmt.Errorf("embed: pretrained snapshot with shape %dx%d", s.Rows, s.Dim)
		}
		w, err := vecmath.MatrixFromFlat(s.Data, s.Rows, s.Dim)
		if err != nil {
			return nil, fmt.Errorf("embed: pretrained snapshot: %w", err)
		}
		return &Pretrained{w: w}, nil
	case "triplet-trained":
		if err := validateMLP(s.Net); err != nil {
			return nil, fmt.Errorf("embed: trained snapshot: %w", err)
		}
		return NewTrained(s.Net), nil
	default:
		return nil, fmt.Errorf("embed: unknown embedder kind %q", s.Kind)
	}
}

// validateMLP checks the network invariants nn's forward pass assumes (and
// would otherwise panic on): layer counts and per-layer weight/bias shapes
// consistent with Sizes.
func validateMLP(m *nn.MLP) error {
	if m == nil {
		return fmt.Errorf("no network")
	}
	if len(m.Sizes) < 2 {
		return fmt.Errorf("network with %d layer sizes", len(m.Sizes))
	}
	layers := len(m.Sizes) - 1
	if len(m.W) != layers || len(m.B) != layers {
		return fmt.Errorf("network with %d layers but %d weight and %d bias groups", layers, len(m.W), len(m.B))
	}
	for l := 0; l < layers; l++ {
		in, out := m.Sizes[l], m.Sizes[l+1]
		if in <= 0 || out <= 0 {
			return fmt.Errorf("layer %d has shape %d -> %d", l, in, out)
		}
		if len(m.W[l]) != out || len(m.B[l]) != out {
			return fmt.Errorf("layer %d has %d weight rows and %d biases, want %d", l, len(m.W[l]), len(m.B[l]), out)
		}
		for i, row := range m.W[l] {
			if len(row) != in {
				return fmt.Errorf("layer %d weight row %d has %d inputs, want %d", l, i, len(row), in)
			}
		}
	}
	return nil
}
