package experiments

import (
	"fmt"
	"io"

	"repro/internal/labeler"
	"repro/internal/query/aggregation"
)

// RunTable1 reproduces Table 1: total cost of answering the night-street
// aggregation query under three target labelers (human, Mask R-CNN, SSD),
// comparing TASTI with the index cost amortized away, TASTI including all
// index costs, uniform sampling with no proxy, and exhaustive labeling.
// Costs are dollars for the human labeler and seconds for the DNN labelers.
func RunTable1(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "table1", Title: "aggregation query costs by target labeler, night-street (TASTI vs uniform vs exhaustive)"}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}

	// Build the index once; only the *cost accounting* depends on which
	// labeler is billed, since all three labelers answer the same question
	// at different prices and accuracies (SSD's accuracy loss is Table 1's
	// accompanying discussion, quantified in extra).
	cfg := env.IndexConfig(TastiT)
	ix, err := env.BuildIndexWith(cfg)
	if err != nil {
		return nil, err
	}
	st := ix.Pin().Stats
	scores, err := ix.Propagate(s.AggScore)
	if err != nil {
		return nil, err
	}

	opts := aggregation.DefaultOptions(sc.Seed + 400)
	opts.ErrTarget = sc.AggErrTarget(s)

	resProxy, err := aggregation.Estimate(opts, env.DS.Len(), scores, s.AggScore, env.Oracle)
	if err != nil {
		return nil, err
	}
	resUniform, err := aggregation.Estimate(opts, env.DS.Len(), nil, s.AggScore, env.Oracle)
	if err != nil {
		return nil, err
	}

	indexCalls := st.TotalLabelCalls()
	n := int64(env.DS.Len())

	targets := []struct {
		name string
		cost labeler.CostModel
		note string
	}{
		{"human labeler", labeler.HumanCost, "most accurate"},
		{"mask r-cnn", labeler.MaskRCNNCost, ""},
		{"ssd", labeler.SSDCost, "~2x less accurate than Mask R-CNN (50.2 vs 23.0 mAP)"},
	}
	for _, tgt := range targets {
		unit, scale := "s", tgt.cost.Seconds
		if tgt.cost.Dollars > 0 {
			unit, scale = "$", tgt.cost.Dollars
		}
		bill := func(calls int64) float64 { return float64(calls) * scale }

		indexCompute := 0.0
		if unit == "s" {
			// DNN targets pay the embedding/training compute in the same
			// unit; crowd-labeler costs are dollars and GPU time is not
			// billed against them, as in the paper.
			c := SimulateConstructionCost(cfg, st, env.DS.Len(), tgt.cost)
			indexCompute = c.EmbeddingSeconds + c.ClusterSeconds
		}

		rep.Add(s.Key, "TASTI (no index)", unit, bill(resProxy.LabelerCalls),
			fmt.Sprintf("target=%s %d query calls", tgt.name, resProxy.LabelerCalls))
		rep.Add(s.Key, "TASTI (all costs)", unit, bill(resProxy.LabelerCalls+indexCalls)+indexCompute,
			fmt.Sprintf("target=%s +%d index calls", tgt.name, indexCalls))
		rep.Add(s.Key, "Uniform (no proxy)", unit, bill(resUniform.LabelerCalls),
			fmt.Sprintf("target=%s %d query calls", tgt.name, resUniform.LabelerCalls))
		rep.Add(s.Key, "Exhaustive", unit, bill(n),
			fmt.Sprintf("target=%s %s", tgt.name, tgt.note))
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}
