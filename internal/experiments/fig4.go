package experiments

import (
	"fmt"
	"io"

	"repro/internal/proxy"
	"repro/internal/query/aggregation"
	"repro/internal/stats"
)

// RunFig4 reproduces Figure 4: approximate aggregation with EBS sampling on
// all six settings, comparing no proxy, a per-query proxy, TASTI-PT, and
// TASTI-T by the number of target-labeler invocations the stopping rule
// needs (lower is better). Per the paper, index/TMAS construction costs are
// excluded here — they are Figure 2/3's subject — which strictly benefits
// the per-query baseline.
func RunFig4(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig4", Title: "approximate aggregation: target labeler invocations (EBS, lower is better)"}
	for _, s := range AllSettings() {
		env, err := NewEnv(s, sc)
		if err != nil {
			return nil, err
		}
		if err := fig4Setting(rep, env); err != nil {
			return nil, fmt.Errorf("fig4 %s: %w", s.Key, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

func fig4Setting(rep *Report, env *Env) error {
	s := env.Setting
	truth := stats.Mean(env.Truth(s.AggScore))

	opts := aggregation.DefaultOptions(env.Scale.Seed + 100)
	opts.ErrTarget = env.Scale.AggErrTarget(s)

	run := func(method Variant, proxyScores []float64) error {
		res, err := aggregation.Estimate(opts, env.DS.Len(), proxyScores, s.AggScore, env.Oracle)
		if err != nil {
			return err
		}
		extra := fmt.Sprintf("est=%.3f truth=%.3f", res.Estimate, truth)
		if proxyScores != nil {
			extra += fmt.Sprintf(" rho2=%.2f", stats.RSquared(proxyScores, env.Truth(s.AggScore)))
		}
		rep.Add(s.Key, string(method), "target calls", float64(res.LabelerCalls), extra)
		return nil
	}

	if err := run(NoProxy, nil); err != nil {
		return err
	}

	proxyScores, _, err := env.TrainProxy(proxy.Regression, s.AggScore, "agg")
	if err != nil {
		return err
	}
	if err := run(PerQueryProxy, proxyScores); err != nil {
		return err
	}

	for _, v := range []Variant{TastiPT, TastiT} {
		ix, err := env.BuildIndex(v)
		if err != nil {
			return err
		}
		scores, err := ix.Propagate(s.AggScore)
		if err != nil {
			return err
		}
		if err := run(v, scores); err != nil {
			return err
		}
	}
	return nil
}
