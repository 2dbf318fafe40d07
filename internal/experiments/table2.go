package experiments

import (
	"fmt"
	"io"

	"repro/internal/metrics"
	"repro/internal/proxy"
	"repro/internal/query/aggregation"
	"repro/internal/query/selection"
	"repro/internal/stats"
)

// RunTable2 reproduces Table 2: queries without statistical guarantees on
// night-street. Aggregation answers directly from the proxy scores (percent
// error, TASTI vs the BlazeIt-style per-query proxy); selection thresholds
// the proxy scores on a small validation set (100 - F1, TASTI vs the
// NoScope-style per-query proxy). Lower is better for both metrics.
func RunTable2(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "table2", Title: "queries without statistical guarantees, night-street (lower is better)"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}

	ix, err := env.BuildSelectionIndex(TastiT)
	if err != nil {
		return nil, err
	}

	// Aggregation: direct estimate from proxy scores at the paper's k=5.
	aggTruth := stats.Mean(env.Truth(s.AggScore))
	tastiAgg, err := ix.Pin().PropagateK(s.AggScore, 5)
	if err != nil {
		return nil, err
	}
	rep.Add(s.Key, "TASTI", "agg % error", aggregation.PercentError(aggregation.Direct(tastiAgg), aggTruth),
		fmt.Sprintf("est=%.3f truth=%.3f", aggregation.Direct(tastiAgg), aggTruth))

	blazeitScores, _, err := env.TrainProxy(proxy.Regression, s.AggScore, "agg")
	if err != nil {
		return nil, err
	}
	rep.Add(s.Key, "BlazeIt", "agg % error", aggregation.PercentError(aggregation.Direct(blazeitScores), aggTruth),
		fmt.Sprintf("est=%.3f truth=%.3f", aggregation.Direct(blazeitScores), aggTruth))

	// Selection: threshold on a validation sample, scored by 100 - F1.
	selTruth := env.TruthMatches(s.SelPred)
	validation := env.DS.Len() / 40
	runSel := func(method string, scores []float64) error {
		res, err := selection.Threshold(env.DS.Len(), scores, validation, s.SelPred, env.Oracle, sc.Seed+700)
		if err != nil {
			return err
		}
		c := metrics.NewConfusion(selTruth, res.Returned)
		rep.Add(s.Key, method, "sel 100-F1", (1-c.F1())*100,
			fmt.Sprintf("F1=%.3f threshold=%.3f", c.F1(), res.Threshold))
		return nil
	}

	tastiSel, err := ix.Propagate(BoolScore(s.SelPred))
	if err != nil {
		return nil, err
	}
	if err := runSel("TASTI", tastiSel); err != nil {
		return nil, err
	}
	noscopeScores, _, err := env.TrainProxy(proxy.Classification, BoolScore(s.SelPred), "sel")
	if err != nil {
		return nil, err
	}
	if err := runSel("NoScope", noscopeScores); err != nil {
		return nil, err
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
