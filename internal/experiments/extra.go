package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/ann"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/labeler"
	"repro/internal/metrics"
	"repro/internal/query/aggregation"
	"repro/internal/query/supg"
	"repro/internal/stats"
)

// The experiments in this file are not from the paper: they are ablations of
// design choices this reproduction makes (DESIGN.md calls them out) — the
// propagation neighbor count k, the random fraction mixed into FPF
// representative selection, and the exact-versus-IVF distance table.

// RunExtraK sweeps the propagation neighbor count k on night-street. The
// paper defaults to k=5 for aggregation/selection and k=1 for limit queries
// (Section 5.3); this shows the tradeoff directly.
func RunExtraK(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "extra-k", Title: "ablation: propagation neighbor count k, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	cfg := env.IndexConfig(TastiT)
	cfg.K = 8 // retain enough neighbors to evaluate every k below
	ix, err := env.BuildIndexWith(cfg)
	if err != nil {
		return nil, err
	}

	truth := env.Truth(s.AggScore)
	selTruth := env.TruthMatches(s.SelPred)
	aggOpts := aggregation.DefaultOptions(sc.Seed + 1000)
	aggOpts.ErrTarget = sc.AggErrTarget(s)
	supgOpts := supg.DefaultOptions(sc.SUPGBudget(s), sc.Seed+1001)

	v := ix.Pin()
	for _, k := range []int{1, 2, 3, 5, 8} {
		scores, err := v.PropagateK(s.AggScore, k, nil)
		if err != nil {
			return nil, err
		}
		counting := labeler.NewCounting(env.Oracle)
		aggRes, err := aggregation.Estimate(aggOpts, env.DS.Len(), scores, s.AggScore, counting)
		if err != nil {
			return nil, err
		}
		rep.Add(s.Key, fmt.Sprintf("k=%d", k), "agg target calls", float64(aggRes.LabelerCalls),
			fmt.Sprintf("rho2=%.3f", stats.RSquared(scores, truth)))

		selScores, err := v.PropagateK(BoolScore(s.SelPred), k, nil)
		if err != nil {
			return nil, err
		}
		supgRes, err := supg.RecallTarget(supgOpts, env.DS.Len(), selScores, s.SelPred, env.Oracle)
		if err != nil {
			return nil, err
		}
		c := metrics.NewConfusion(selTruth, supgRes.Returned)
		rep.Add(s.Key, fmt.Sprintf("k=%d", k), "SUPG FPR %", c.FalsePositiveRate()*100,
			fmt.Sprintf("recall=%.3f", c.Recall()))
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// RunExtraMix sweeps the fraction of cluster representatives chosen at
// random rather than by FPF. The paper mixes "a small fraction" for
// average-case queries; this quantifies the tradeoff between aggregation
// (helped by random reps) and limit queries (helped by FPF's outliers).
func RunExtraMix(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "extra-mix", Title: "ablation: random fraction in FPF representative selection, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	for _, frac := range []float64{0, 0.1, 0.3, 0.6, 1.0} {
		cfg := env.IndexConfig(TastiT)
		cfg.RandomRepFraction = frac
		if err := ablationMeasure(rep, env, fmt.Sprintf("mix=%.1f", frac), cfg); err != nil {
			return nil, fmt.Errorf("extra-mix %.1f: %w", frac, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// RunExtraANN compares the exact distance table against IVF-approximate
// tables at several probe counts: construction wall time versus proxy-score
// quality and downstream aggregation cost on night-street.
func RunExtraANN(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "extra-ann", Title: "ablation: exact vs IVF-approximate distance table, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}
	ix, err := env.BuildIndex(TastiT)
	if err != nil {
		return nil, err
	}
	sh := ix.Shard(0) // the whole corpus: one shard
	truth := env.Truth(s.AggScore)
	aggOpts := aggregation.DefaultOptions(sc.Seed + 1002)
	aggOpts.ErrTarget = sc.AggErrTarget(s)

	measure := func(name string, table *cluster.Table, buildTime time.Duration) error {
		probe := &core.Index{Embeddings: sh.Embeddings, Table: table, Annotations: sh.Annotations}
		scores, err := probe.Propagate(s.AggScore)
		if err != nil {
			return err
		}
		counting := labeler.NewCounting(env.Oracle)
		res, err := aggregation.Estimate(aggOpts, env.DS.Len(), scores, s.AggScore, counting)
		if err != nil {
			return err
		}
		rep.Add(s.Key, name, "agg target calls", float64(res.LabelerCalls),
			fmt.Sprintf("rho2=%.3f table=%.0fms", stats.RSquared(scores, truth), buildTime.Seconds()*1000))
		return nil
	}

	start := time.Now()
	exact := cluster.BuildTablePar(sh.Embeddings, sh.Table.Reps, sh.Table.K, 0)
	if err := measure("exact", exact, time.Since(start)); err != nil {
		return nil, err
	}
	for _, nprobe := range []int{1, 2, 4, 8} {
		start := time.Now()
		approx, err := ann.BuildTableApprox(sh.Embeddings, sh.Table.Reps, sh.Table.K, nprobe,
			ann.DefaultConfig(len(sh.Table.Reps), sc.Seed))
		if err != nil {
			return nil, err
		}
		if err := measure(fmt.Sprintf("ivf nprobe=%d", nprobe), approx, time.Since(start)); err != nil {
			return nil, err
		}
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
