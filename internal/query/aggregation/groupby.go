package aggregation

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/stats"
	"repro/internal/xrand"
)

// GroupFunc maps a target-labeler output to a categorical group key, e.g.
// "has bus" / "cars only" / "empty".
type GroupFunc func(ann dataset.Annotation) string

// GroupByOptions configures EstimateGroups.
type GroupByOptions struct {
	// Budget is the total number of target-labeler invocations.
	Budget int
	// Seed makes sampling deterministic.
	Seed int64
}

// GroupEstimate is one group's result.
type GroupEstimate struct {
	// Mean is the estimated mean score within the group.
	Mean float64
	// Fraction is the estimated fraction of records in the group.
	Fraction float64
	// Samples is how many labeled records landed in the group.
	Samples int
}

// GroupByResult maps group keys to their estimates.
type GroupByResult struct {
	Groups       map[string]GroupEstimate
	LabelerCalls int64
}

// EstimateGroups answers a grouped aggregation ("average score per group")
// at a fixed labeler budget. proxyGroups supplies a predicted group per
// record (e.g. a distance-weighted vote of its nearest representatives'
// labels); sampling is stratified by the predicted group with equal
// allocation, which concentrates budget on rare groups when the proxy is
// accurate. Group membership and scores of sampled records come from the
// target labeler, so the estimates are unbiased within strata regardless of
// proxy quality.
func EstimateGroups(opts GroupByOptions, n int, proxyGroups []string, groupOf GroupFunc, score ScoreFunc, lab labeler.Labeler) (GroupByResult, error) {
	if n <= 0 {
		return GroupByResult{}, errors.New("aggregation: empty dataset")
	}
	if len(proxyGroups) != n {
		return GroupByResult{}, fmt.Errorf("aggregation: %d proxy groups for %d records", len(proxyGroups), n)
	}
	if opts.Budget <= 0 {
		return GroupByResult{}, fmt.Errorf("aggregation: group-by budget must be positive, got %d", opts.Budget)
	}

	// Strata: records by predicted group, keys sorted for determinism.
	strata := map[string][]int{}
	for i, g := range proxyGroups {
		strata[g] = append(strata[g], i)
	}
	keys := make([]string, 0, len(strata))
	for k := range strata {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	// Equal allocation across strata, clamped to stratum size.
	r := xrand.New(opts.Seed)
	per := opts.Budget / len(keys)
	if per < 1 {
		per = 1
	}

	// Per (stratum, true group) accumulators.
	type cell struct {
		w     stats.Welford
		count int
	}
	acc := map[string]map[string]*cell{}
	sampled := map[string]int{}
	var calls int64
	for _, k := range keys {
		ids := strata[k]
		quota := per
		if quota > len(ids) {
			quota = len(ids)
		}
		acc[k] = map[string]*cell{}
		for _, j := range xrand.SampleWithoutReplacement(r, len(ids), quota) {
			id := ids[j]
			ann, err := lab.Label(id)
			if err != nil {
				return GroupByResult{}, fmt.Errorf("aggregation: labeling record %d: %w", id, err)
			}
			calls++
			g := groupOf(ann)
			c := acc[k][g]
			if c == nil {
				c = &cell{}
				acc[k][g] = c
			}
			c.w.Add(score(ann))
			c.count++
			sampled[k]++
		}
	}

	// Combine: for group g, fraction = sum_s w_s * p(g|s) and
	// mean = sum_s w_s * p(g|s) * mean(score|s,g) / fraction.
	out := GroupByResult{Groups: map[string]GroupEstimate{}, LabelerCalls: calls}
	groupKeys := map[string]bool{}
	for _, cells := range acc {
		for g := range cells {
			groupKeys[g] = true
		}
	}
	for g := range groupKeys {
		var fraction, weightedMean float64
		samples := 0
		for _, k := range keys {
			if sampled[k] == 0 {
				continue
			}
			ws := float64(len(strata[k])) / float64(n)
			c := acc[k][g]
			if c == nil {
				continue
			}
			pg := float64(c.count) / float64(sampled[k])
			fraction += ws * pg
			weightedMean += ws * pg * c.w.Mean()
			samples += c.count
		}
		est := GroupEstimate{Fraction: fraction, Samples: samples}
		if fraction > 0 {
			est.Mean = weightedMean / fraction
		}
		out.Groups[g] = est
	}
	return out, nil
}
