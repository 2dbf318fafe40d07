package experiments

import (
	"fmt"
	"io"

	"repro/internal/proxy"
	"repro/internal/query/limitq"
)

// RunFig6 reproduces Figure 6: limit queries for rare events on all six
// settings, comparing a per-query proxy against TASTI-PT and TASTI-T by the
// number of target-labeler invocations the ranking scan needs to find K
// matches (lower is better). TASTI uses the paper's Section 6.3 custom
// scoring: k=1 propagation with ties broken by embedding distance to the
// nearest representative.
func RunFig6(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "fig6", Title: "limit queries: target labeler invocations to find K rare events (lower is better)"}
	for _, s := range AllSettings() {
		env, err := NewEnv(s, sc)
		if err != nil {
			return nil, err
		}
		if err := fig6Setting(rep, env); err != nil {
			return nil, fmt.Errorf("fig6 %s: %w", s.Key, err)
		}
	}
	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

func fig6Setting(rep *Report, env *Env) error {
	s := env.Setting

	run := func(method Variant, scores, tieDist []float64) error {
		res, err := limitq.Run(s.LimitK, scores, tieDist, s.LimitPred, env.Oracle)
		if err != nil {
			return err
		}
		extra := fmt.Sprintf("found=%d/%d", len(res.Found), s.LimitK)
		if res.Exhausted {
			extra += " (exhausted)"
		}
		rep.Add(s.Key, string(method), "target calls", float64(res.OracleCalls), extra)
		return nil
	}

	// Count-threshold queries rank by the count score, as the paper's
	// Section 4.1 prescribes ("the scoring function ... would be the same
	// as for aggregation"); attribute queries rank by the predicate score.
	rankScore := BoolScore(s.LimitPred)
	proxyKind := proxy.Classification
	if s.CountBasedLimit {
		rankScore = s.AggScore
		proxyKind = proxy.Regression
	}

	proxyScores, _, err := env.TrainProxy(proxyKind, rankScore, "limit")
	if err != nil {
		return err
	}
	if err := run(PerQueryProxy, proxyScores, nil); err != nil {
		return err
	}

	for _, v := range []Variant{TastiPT, TastiT} {
		ix, err := env.BuildIndex(v)
		if err != nil {
			return err
		}
		scores, dists, err := ix.Pin().PropagateNearest(rankScore, nil)
		if err != nil {
			return err
		}
		if err := run(v, scores, dists); err != nil {
			return err
		}
	}
	return nil
}
