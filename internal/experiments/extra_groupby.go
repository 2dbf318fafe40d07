package experiments

import (
	"fmt"
	"io"
	"math"

	"repro/internal/dataset"
	"repro/internal/metrics"
	"repro/internal/query/aggregation"
	"repro/internal/shard"
)

// trafficGroup buckets taipei frames by bus load — the grouped-aggregation
// query "average cars per frame, grouped by bus traffic". The multi-bus
// group covers ~2% of frames, so uniform sampling starves it and
// stratification by predicted group pays off.
func trafficGroup(ann dataset.Annotation) string {
	switch n := ann.(dataset.VideoAnnotation).Count("bus"); {
	case n >= 2:
		return "multi-bus"
	case n == 1:
		return "one-bus"
	default:
		return "no-bus"
	}
}

// RunExtraGroupBy demonstrates grouped aggregation on taipei: the per-group
// mean car count at a fixed budget, stratified by TASTI's propagated group
// votes versus unstratified uniform sampling. The metric is the percent
// error on the rare group's mean (lower is better).
func RunExtraGroupBy(sc Scale, w io.Writer) (*Report, error) {
	rep := &Report{ID: "extra-groupby", Title: "extension: grouped aggregation, taipei (rare-group % error at fixed budget; lower is better)"}
	s, err := SettingByKey("taipei-car")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}

	// Ground truth for the rare group.
	var sum, count float64
	for _, ann := range env.DS.Truth {
		if trafficGroup(ann) == "multi-bus" {
			sum += s.AggScore(ann)
			count++
		}
	}
	truth := sum / count

	budget := sc.SUPGBudget(s) * 2
	run := func(method string, proxyGroups []string) error {
		const trials = 30
		totalErr := 0.0
		for trial := 0; trial < trials; trial++ {
			res, err := aggregation.EstimateGroups(
				aggregation.GroupByOptions{Budget: budget, Seed: sc.Seed + int64(3000+trial)},
				env.DS.Len(), proxyGroups, trafficGroup, s.AggScore, env.Oracle)
			if err != nil {
				return err
			}
			totalErr += metrics.PercentError(res.Groups["multi-bus"].Mean, truth)
		}
		rep.Add(s.Key, method, "rare-group % error", totalErr/trials,
			fmt.Sprintf("budget=%d truth=%.3f", budget, truth))
		return nil
	}

	// Unstratified baseline: one stratum.
	flat := make([]string, env.DS.Len())
	for i := range flat {
		flat[i] = "all"
	}
	if err := run("uniform", flat); err != nil {
		return nil, err
	}

	// TASTI-T: stratify by propagated group votes.
	ix, err := env.BuildIndex(TastiT)
	if err != nil {
		return nil, err
	}
	if err := run("TASTI-T votes", propagateVote(ix.Shard(0), trafficGroup)); err != nil {
		return nil, err
	}

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// voteEps regularizes inverse-distance vote weights so an exact match does not
// divide by zero, as in score propagation.
const voteEps = 1e-9

// propagateVote labels every record a shard owns by distance-weighted
// majority vote over its nearest representatives: a representative keeps its
// own label, any other record takes the label with the largest summed inverse
// distance, ties to the smaller label. The result is indexed from the shard's
// first record, so over a one-shard index it is indexed by record ID.
func propagateVote(sh *shard.Shard, label func(dataset.Annotation) string) []string {
	labels := make(map[int]string, len(sh.Annotations))
	for id, ann := range sh.Annotations {
		labels[id] = label(ann)
	}
	out := make([]string, sh.NumRecords())
	votes := make(map[string]float64)
	for i, nbrs := range sh.Table.Neighbors {
		if nbrs[0].Dist == 0 {
			out[i] = labels[nbrs[0].Rep]
			continue
		}
		clear(votes)
		for _, nb := range nbrs {
			votes[labels[nb.Rep]] += 1 / (nb.Dist + voteEps)
		}
		best, bestW := "", math.Inf(-1)
		for l, w := range votes {
			if w > bestW || (w == bestW && l < best) {
				best, bestW = l, w
			}
		}
		out[i] = best
	}
	return out
}
