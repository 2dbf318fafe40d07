package experiments

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/proxy"
	"repro/internal/shard"
	"repro/internal/triplet"
	"repro/internal/xrand"
)

// Env is the shared state of one (setting, scale) evaluation: the generated
// corpus and its exact target labeler.
type Env struct {
	Setting Setting
	Scale   Scale
	DS      *dataset.Dataset
	// Oracle is the exact target labeler, uncounted: the estimators report
	// their own label calls.
	Oracle labeler.Labeler
}

// NewEnv generates the corpus for a setting at the given scale.
func NewEnv(s Setting, sc Scale) (*Env, error) {
	ds, err := dataset.Generate(s.Dataset, sc.CorpusSize(s), sc.Seed)
	if err != nil {
		return nil, fmt.Errorf("experiments: generating %s: %w", s.Dataset, err)
	}
	return &Env{
		Setting: s,
		Scale:   sc,
		DS:      ds,
		Oracle:  labeler.NewOracle(ds, s.TargetName, s.TargetCost),
	}, nil
}

// Variant names the systems the evaluation compares.
type Variant string

// The four systems of Figures 4-6 plus the ablation variants of Figures
// 9-10.
const (
	NoProxy       Variant = "no proxy"
	PerQueryProxy Variant = "per-query proxy"
	TastiPT       Variant = "TASTI-PT"
	TastiT        Variant = "TASTI-T"
)

// IndexConfig returns the core configuration for a TASTI variant of this
// environment. Callers may tweak the returned config before building.
func (e *Env) IndexConfig(v Variant) core.Config {
	train, reps := e.Scale.IndexBudgets(e.Setting)
	switch v {
	case TastiPT:
		return core.PretrainedConfig(reps, e.Scale.Seed)
	case TastiT:
		cfg := core.DefaultConfig(train, reps, e.Setting.BucketKey, e.Scale.Seed)
		if e.Scale.TripletSteps > 0 {
			cfg.Train = triplet.DefaultConfig(cfg.EmbedDim, cfg.Seed)
			cfg.Train.Steps = e.Scale.TripletSteps
		}
		return cfg
	default:
		panic(fmt.Sprintf("experiments: variant %q has no index", v))
	}
}

// SelectionK is the neighbor count used to smooth selection proxy scores.
// The paper's Section 4.1 notes selection scores "can be smoothed for
// k > 1"; with this reproduction's rep densities, k=16 is the smoothing
// that keeps rare-class recall curves steep enough for SUPG's bound
// (aggregation keeps the paper's default k=5).
const SelectionK = 16

// BuildSelectionIndex builds a variant's index with the selection smoothing
// depth retained in the distance table.
func (e *Env) BuildSelectionIndex(v Variant) (*shard.Index, error) {
	cfg := e.IndexConfig(v)
	cfg.K = SelectionK
	return e.BuildIndexWith(cfg)
}

// BuildIndex constructs the TASTI index for a variant.
func (e *Env) BuildIndex(v Variant) (*shard.Index, error) {
	return e.BuildIndexWith(e.IndexConfig(v))
}

// BuildIndexWith constructs a TASTI index with an explicit configuration
// (ablations and sensitivity sweeps tweak the variant configs) and serves it
// as the one-shard index tastiserve runs: every experiment reads, and
// table3 cracks, through the same copy-on-write versions a client's
// queries do.
func (e *Env) BuildIndexWith(cfg core.Config) (*shard.Index, error) {
	ix, err := core.Build(cfg, e.DS, e.Oracle)
	if err != nil {
		return nil, err
	}
	return shard.Split(ix, 1)
}

// BoolScore converts a predicate into the 0/1 scoring function selection
// queries propagate.
func BoolScore(pred func(ann dataset.Annotation) bool) func(ann dataset.Annotation) float64 {
	return func(ann dataset.Annotation) float64 {
		if pred(ann) {
			return 1
		}
		return 0
	}
}

// TinyProxyConfig returns the per-query proxy training configuration. The
// paper's proxies are deliberately tiny models ("tiny ResNet", CNN-10,
// logistic regression over FastText) running on raw inputs; a narrow
// low-epoch MLP plays that role here.
func TinyProxyConfig(kind proxy.Kind, seed int64) proxy.Config {
	cfg := proxy.DefaultConfig(kind, seed)
	cfg.Hidden = 16
	cfg.Epochs = 20
	return cfg
}

// TrainProxy trains a per-query proxy on a fresh uniformly sampled TMAS and
// returns its scores over the whole corpus. score maps the annotation to the
// training target (a count for Regression, 0/1 for Classification). The
// returned labelCalls is the TMAS size, the construction cost Figures 2-3
// account for.
func (e *Env) TrainProxy(kind proxy.Kind, score func(ann dataset.Annotation) float64, seedLabel string) (scores []float64, labelCalls int64, err error) {
	tmas := e.Scale.ProxyTMAS
	if tmas > e.DS.Len() {
		tmas = e.DS.Len()
	}
	r := xrand.Split(e.Scale.Seed, "tmas-"+seedLabel)
	ids := xrand.SampleWithoutReplacement(r, e.DS.Len(), tmas)
	targets := make([]float64, len(ids))
	for i, id := range ids {
		ann, err := e.Oracle.Label(id)
		if err != nil {
			return nil, 0, fmt.Errorf("experiments: labeling TMAS record %d: %w", id, err)
		}
		targets[i] = score(ann)
	}
	model, err := proxy.Train(TinyProxyConfig(kind, e.Scale.Seed), e.DS, ids, targets, 0)
	if err != nil {
		return nil, 0, fmt.Errorf("experiments: training per-query proxy: %w", err)
	}
	return model.Scores(e.DS), int64(tmas), nil
}

// Truth evaluates a scoring function on the ground-truth annotations.
func (e *Env) Truth(score func(ann dataset.Annotation) float64) []float64 {
	out := make([]float64, e.DS.Len())
	for i, ann := range e.DS.Truth {
		out[i] = score(ann)
	}
	return out
}

// TruthMatches evaluates a predicate on the ground-truth annotations.
func (e *Env) TruthMatches(pred func(ann dataset.Annotation) bool) []bool {
	out := make([]bool, e.DS.Len())
	for i, ann := range e.DS.Truth {
		out[i] = pred(ann)
	}
	return out
}
