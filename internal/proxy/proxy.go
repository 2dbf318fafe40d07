// Package proxy implements the per-query proxy-model baselines the paper
// compares TASTI against: for each query, a small model is trained on
// target-labeler annotations (the BlazeIt "TMAS") to predict the
// query-specific score — a regression MLP for counts ("tiny ResNet"), a
// logistic classifier for predicates (FastText + logistic regression,
// CNN-10).
package proxy

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/dataset"
	"repro/internal/nn"
	"repro/internal/xrand"
)

// Kind selects the training objective.
type Kind int

const (
	// Regression trains with squared error; Scores returns raw outputs.
	Regression Kind = iota
	// Classification trains with logistic loss on 0/1 targets; Scores
	// returns probabilities.
	Classification
)

// Config parameterizes proxy training.
type Config struct {
	// Kind is the objective.
	Kind Kind
	// Hidden is the MLP hidden width.
	Hidden int
	// Epochs is the number of passes over the training set.
	Epochs int
	// BatchSize is the minibatch size.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// Seed makes training deterministic.
	Seed int64
}

// DefaultConfig returns the settings used by the evaluation baselines.
func DefaultConfig(kind Kind, seed int64) Config {
	return Config{
		Kind:      kind,
		Hidden:    32,
		Epochs:    30,
		BatchSize: 32,
		LR:        3e-3,
		Seed:      seed,
	}
}

// Model is a trained per-query proxy.
type Model struct {
	fw   *nn.Forwarder
	kind Kind
}

// Train fits a proxy on the labeled records: ids and targets are parallel
// slices of record IDs and their query-specific scores (0/1 for
// Classification). p is the parallelism level (p <= 0 uses all CPUs); the
// trained weights are bitwise identical at every p.
func Train(cfg Config, ds *dataset.Dataset, ids []int, targets []float64, p int) (*Model, error) {
	net, err := fit(cfg, ds, ids, targets, p)
	if err != nil {
		return nil, err
	}
	return &Model{fw: nn.NewForwarder(net), kind: cfg.Kind}, nil
}

// fit trains the proxy's network.
func fit(cfg Config, ds *dataset.Dataset, ids []int, targets []float64, p int) (*nn.MLP, error) {
	if len(ids) == 0 {
		return nil, errors.New("proxy: empty training set")
	}
	if len(ids) != len(targets) {
		return nil, fmt.Errorf("proxy: %d ids but %d targets", len(ids), len(targets))
	}
	if cfg.Hidden <= 0 || cfg.Epochs <= 0 || cfg.BatchSize <= 0 {
		return nil, fmt.Errorf("proxy: invalid config %+v", cfg)
	}
	if cfg.Kind != Regression && cfg.Kind != Classification {
		return nil, fmt.Errorf("proxy: unknown kind %d", cfg.Kind)
	}
	net := nn.NewMLP(xrand.Split(cfg.Seed, "proxy-init"), ds.FeatureDim(), cfg.Hidden, 1)
	// The trainer's row j is training position j, so a batch lists its
	// positions: distinct, even where ids repeats a record.
	inputs := make([][]float64, len(ids))
	for j, id := range ids {
		inputs[j] = ds.Records[id].Features
	}
	trainer := nn.NewTrainer(net, nn.NewAdam(cfg.LR), inputs, min(cfg.BatchSize, len(ids)), 1, p)
	defer trainer.Close()
	r := xrand.Split(cfg.Seed, "proxy-shuffle")

	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	for epoch := 0; epoch < cfg.Epochs; epoch++ {
		xrand.Shuffle(r, order)
		for start := 0; start < len(order); start += cfg.BatchSize {
			batch := order[start:min(start+cfg.BatchSize, len(order))]
			trainer.Step(batch, len(batch), func(e int, ex *nn.Example) {
				j := batch[e]
				out := ex.Output(j)[0]
				if cfg.Kind == Classification {
					out = sigmoid(out) // d/dlogit BCE = sigmoid(logit) - y
				}
				ex.Grad(0, j)[0] = out - targets[j] // Regression: d/dout 0.5*(out-y)^2
				ex.Backward(0)
			})
		}
	}
	return net, nil
}

// Score predicts the proxy score of one record's raw features.
func (m *Model) Score(features []float64) float64 {
	var out [1]float64
	m.fw.ForwardInto(out[:], features)
	if m.kind == Classification {
		return sigmoid(out[0])
	}
	return out[0]
}

// Scores predicts proxy scores for every record of the dataset.
func (m *Model) Scores(ds *dataset.Dataset) []float64 {
	out := make([]float64, ds.Len())
	for i := range ds.Records {
		out[i] = m.Score(ds.Records[i].Features)
	}
	return out
}

func sigmoid(x float64) float64 {
	return 1 / (1 + math.Exp(-x))
}
