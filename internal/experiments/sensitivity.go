package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/proxy"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/triplet"
)

// sensitivityMeasure runs the aggregation and limit queries for one index
// configuration on night-street, labeling the rows with the sweep point.
func sensitivityMeasure(rep *Report, env *Env, point string, cfg core.Config) error {
	return ablationMeasure(rep, env, point, cfg)
}

// perQueryBaseline adds the per-query proxy reference lines that Figures
// 11-13 plot alongside the sweeps.
func perQueryBaseline(rep *Report, env *Env) error {
	s := env.Setting

	aggScores, _, err := env.TrainProxy(proxy.Regression, s.AggScore, "agg")
	if err != nil {
		return err
	}
	opts := aggregation.DefaultOptions(env.Scale.Seed + 900)
	opts.ErrTarget = env.Scale.AggErrTarget(s)
	aggRes, err := aggregation.Estimate(opts, env.DS.Len(), aggScores, s.AggScore, env.Oracle)
	if err != nil {
		return err
	}
	rep.Add(s.Key, "per-query proxy", "agg target calls", float64(aggRes.LabelerCalls), "reference line")

	limitKind, limitRank := proxy.Classification, BoolScore(s.LimitPred)
	if s.CountBasedLimit {
		limitKind, limitRank = proxy.Regression, s.AggScore
	}
	limScores, _, err := env.TrainProxy(limitKind, limitRank, "limit")
	if err != nil {
		return err
	}
	limRes, err := limitq.Run(s.LimitK, limScores, nil, s.LimitPred, env.Oracle)
	if err != nil {
		return err
	}
	rep.Add(s.Key, "per-query proxy", "limit target calls", float64(limRes.OracleCalls), "reference line")
	return nil
}

// RunFig11 reproduces Figure 11: sensitivity of aggregation and limit
// queries to the number of cluster representatives (buckets) on
// night-street, with the per-query proxy as the reference.
func RunFig11(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig11", Title: "sensitivity: number of cluster representatives, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	if err := perQueryBaseline(rep, env); err != nil {
		return nil, err
	}
	_, baseReps := sc.IndexBudgets(s)
	for _, frac := range []float64{0.025, 0.25, 0.5, 0.75, 1.0, 1.5} {
		reps := int(frac * float64(baseReps))
		if reps < 50 {
			reps = 50
		}
		cfg := env.IndexConfig(TastiT)
		cfg.NumReps = reps
		if err := sensitivityMeasure(rep, env, fmt.Sprintf("TASTI-T reps=%d", reps), cfg); err != nil {
			return nil, fmt.Errorf("fig11 reps=%d: %w", reps, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// RunFig12 reproduces Figure 12: sensitivity to the number of triplet
// training examples on night-street.
func RunFig12(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig12", Title: "sensitivity: number of training examples, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	if err := perQueryBaseline(rep, env); err != nil {
		return nil, err
	}
	baseTrain, _ := sc.IndexBudgets(s)
	for _, frac := range []float64{0.33, 0.67, 1.0, 1.33, 1.67} {
		train := int(frac * float64(baseTrain))
		if train < 100 {
			train = 100
		}
		cfg := env.IndexConfig(TastiT)
		cfg.TrainingBudget = train
		if err := sensitivityMeasure(rep, env, fmt.Sprintf("TASTI-T train=%d", train), cfg); err != nil {
			return nil, fmt.Errorf("fig12 train=%d: %w", train, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// RunFig13 reproduces Figure 13: sensitivity to the embedding dimension on
// night-street (paper: 32 through 512).
func RunFig13(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig13", Title: "sensitivity: embedding dimension, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	if err := perQueryBaseline(rep, env); err != nil {
		return nil, err
	}
	for _, dim := range []int{16, 32, 64, 128, 256} {
		cfg := env.IndexConfig(TastiT)
		cfg.EmbedDim = dim
		cfg.Train = triplet.DefaultConfig(dim, cfg.Seed)
		if err := sensitivityMeasure(rep, env, fmt.Sprintf("TASTI-T dim=%d", dim), cfg); err != nil {
			return nil, fmt.Errorf("fig13 dim=%d: %w", dim, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
