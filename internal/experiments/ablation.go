package experiments

import (
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
)

// ablationVariant is one optimization combination of the factor analysis and
// lesion study.
type ablationVariant struct {
	name                         string
	doTrain, fpfMine, fpfCluster bool
}

// ablationConfig builds the index configuration for one variant.
func (env *Env) ablationConfig(v ablationVariant) core.Config {
	cfg := env.IndexConfig(TastiT)
	cfg.DoTrain = v.doTrain
	cfg.FPFMining = v.fpfMine
	cfg.FPFCluster = v.fpfCluster
	if !v.doTrain {
		cfg.TrainingBudget = 0
		cfg.BucketKey = nil
	}
	return cfg
}

// ablationMeasure runs the aggregation and limit queries on one variant and
// adds both rows.
func ablationMeasure(rep *Report, env *Env, name string, cfg core.Config) error {
	s := env.Setting
	ix, err := env.BuildIndexWith(cfg)
	if err != nil {
		return err
	}

	aggScores, err := ix.Propagate(s.AggScore)
	if err != nil {
		return err
	}
	opts := aggregation.DefaultOptions(env.Scale.Seed + 900)
	opts.ErrTarget = env.Scale.AggErrTarget(s)
	aggRes, err := aggregation.Estimate(opts, env.DS.Len(), aggScores, s.AggScore, env.Oracle)
	if err != nil {
		return err
	}
	rep.Add(s.Key, name, "agg target calls", float64(aggRes.LabelerCalls), "")

	limitRank := BoolScore(s.LimitPred)
	if s.CountBasedLimit {
		limitRank = s.AggScore
	}
	limScores, limDists, err := ix.Pin().PropagateNearest(limitRank)
	if err != nil {
		return err
	}
	limRes, err := limitq.Run(s.LimitK, limScores, limDists, s.LimitPred, env.Oracle)
	if err != nil {
		return err
	}
	rep.Add(s.Key, name, "limit target calls", float64(limRes.OracleCalls),
		fmt.Sprintf("found=%d/%d", len(limRes.Found), s.LimitK))
	return nil
}

// RunFig9 reproduces Figure 9: a factor analysis on night-street where the
// optimizations are added in sequence — none, +triplet training, +FPF
// clustering, +FPF training-data mining — measuring aggregation and limit
// query cost at each step.
func RunFig9(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig9", Title: "factor analysis, night-street: optimizations added in sequence (target calls, lower is better)"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	seq := []ablationVariant{
		{"none", false, false, false},
		{"+triplet", true, false, false},
		{"+FPF cluster", true, false, true},
		{"+FPF train", true, true, true},
	}
	for _, v := range seq {
		if err := ablationMeasure(rep, env, v.name, env.ablationConfig(v)); err != nil {
			return nil, fmt.Errorf("fig9 %s: %w", v.name, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// RunFig10 reproduces Figure 10: a lesion study on night-street where each
// optimization is removed individually from the full system.
func RunFig10(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig10", Title: "lesion study, night-street: optimizations removed individually (target calls, lower is better)"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	seq := []ablationVariant{
		{"all", true, true, true},
		{"-triplet", false, true, true},
		{"-FPF train", true, false, true},
		{"-FPF cluster", true, true, false},
	}
	for _, v := range seq {
		if err := ablationMeasure(rep, env, v.name, env.ablationConfig(v)); err != nil {
			return nil, fmt.Errorf("fig10 %s: %w", v.name, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
