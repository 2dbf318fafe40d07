package experiments

import (
	"fmt"
	"io"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/proxy"
	"repro/internal/query/aggregation"
	"repro/internal/xrand"
)

// RunFig3 reproduces Figure 3: index construction time versus aggregation
// query performance on night-street. TASTI sweeps its representative count;
// BlazeIt sweeps its TMAS size. Each point pairs simulated construction
// seconds with the EBS target-labeler calls the resulting proxy scores need.
func RunFig3(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig3", Title: "construction time vs aggregation performance, night-street"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}

	opts := aggregation.DefaultOptions(sc.Seed + 300)
	opts.ErrTarget = sc.AggErrTarget(s)

	queryCalls := func(scores []float64) (int64, error) {
		counting := labeler.NewCounting(env.Oracle)
		res, err := aggregation.Estimate(opts, env.DS.Len(), scores, s.AggScore, counting)
		if err != nil {
			return 0, err
		}
		return res.LabelerCalls, nil
	}

	// TASTI-T: sweep the representative count.
	_, baseReps := sc.IndexBudgets(s)
	for _, frac := range []float64{0.25, 0.5, 1.0, 1.5} {
		reps := int(frac * float64(baseReps))
		if reps < 50 {
			reps = 50
		}
		cfg := env.IndexConfig(TastiT)
		cfg.NumReps = reps
		ix, err := env.BuildIndexWith(cfg)
		if err != nil {
			return nil, err
		}
		scores, err := ix.Propagate(s.AggScore)
		if err != nil {
			return nil, err
		}
		calls, err := queryCalls(scores)
		if err != nil {
			return nil, err
		}
		cost := SimulateConstructionCost(cfg, ix.Pin().Stats, env.DS.Len(), s.TargetCost)
		rep.Add(s.Key, fmt.Sprintf("TASTI-T reps=%d", reps), "query target calls", float64(calls),
			fmt.Sprintf("construction=%.0fs", cost.Total()))
	}

	// BlazeIt: sweep the TMAS size its per-query proxy trains on.
	for _, frac := range []float64{0.25, 0.5, 1.0, 1.5} {
		tmas := int(frac * float64(sc.ProxyTMAS))
		if tmas < 100 {
			tmas = 100
		}
		if tmas > env.DS.Len() {
			tmas = env.DS.Len()
		}
		scores, err := trainProxyWithTMAS(env, tmas, s.AggScore)
		if err != nil {
			return nil, err
		}
		calls, err := queryCalls(scores)
		if err != nil {
			return nil, err
		}
		rep.Add(s.Key, fmt.Sprintf("BlazeIt tmas=%d", tmas), "query target calls", float64(calls),
			fmt.Sprintf("construction=%.0fs", float64(tmas)*s.TargetCost.Seconds))
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// trainProxyWithTMAS trains the per-query aggregation proxy on a TMAS of the
// given size.
func trainProxyWithTMAS(env *Env, tmas int, score func(ann dataset.Annotation) float64) ([]float64, error) {
	r := xrand.Split(env.Scale.Seed, fmt.Sprintf("fig3-tmas-%d", tmas))
	ids := xrand.SampleWithoutReplacement(r, env.DS.Len(), tmas)
	targets := make([]float64, len(ids))
	for i, id := range ids {
		ann, err := env.Oracle.Label(id)
		if err != nil {
			return nil, err
		}
		targets[i] = score(ann)
	}
	model, err := proxy.Train(TinyProxyConfig(proxy.Regression, env.Scale.Seed), env.DS, ids, targets, 0)
	if err != nil {
		return nil, err
	}
	return model.Scores(env.DS), nil
}
