package core

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// Pre-built metric names: propagation runs per query, so the counter names
// must not be rebuilt (allocated) per call.
const (
	metricPropagateWeighted = `tasti_propagate_total{kind="weighted"}`
	metricPropagateSeconds  = "tasti_propagate_seconds"
)

// ScoreFunc turns a target-labeler output into a numeric query-specific
// score — the paper's Section 4.2 developer API. Examples: count of "car"
// boxes for an aggregation query, 0/1 predicate match for a selection query.
type ScoreFunc func(ann dataset.Annotation) float64

// invDistEps regularizes inverse-distance weights so exact matches do not
// divide by zero.
const invDistEps = 1e-9

// PropagateKRange scores records [lo, hi): the exact score for zero-distance
// records (representatives), the inverse-distance-weighted mean of the k
// nearest representatives elsewhere. out and neighbors share the same index
// base; repScores is indexed by the representative IDs the neighbor lists
// name, which need not be bounded by len(out) — internal/shard runs this
// kernel over shard-local rows whose neighbor lists carry corpus-global
// representative IDs. Each record's value depends only on its own neighbor
// list and the representative scores, so any partition of [0, n) into ranges
// produces bitwise-identical output.
func PropagateKRange(out []float64, neighbors [][]cluster.Neighbor, repScores []float64, k, lo, hi int) {
	for i := lo; i < hi; i++ {
		nbrs := neighbors[i]
		if len(nbrs) > k {
			nbrs = nbrs[:k]
		}
		// A zero-distance neighbor (the record is itself a representative)
		// gets the exact score.
		if nbrs[0].Dist == 0 {
			out[i] = repScores[nbrs[0].Rep]
			continue
		}
		num, den := 0.0, 0.0
		for _, nb := range nbrs {
			w := 1 / (nb.Dist + invDistEps)
			num += w * repScores[nb.Rep]
			den += w
		}
		out[i] = num / den
	}
}

// Propagate computes a proxy score for every record: the exact score on
// representatives and the inverse-distance-weighted mean of the Table.K
// nearest representatives' scores elsewhere (Section 4.3). The per-record
// loop runs across Config.Parallelism workers; each record reads only the
// table and the representative scores, so the output is identical at every
// worker count. Queries run on the served index (package shard), which
// computes the same bits; this is the unsharded baseline the benchmark
// prices.
func (ix *Index) Propagate(score ScoreFunc) ([]float64, error) {
	start := time.Now()
	n := ix.NumRecords()
	repScores := make([]float64, n)
	for _, rep := range ix.Table.Reps {
		ann, ok := ix.Annotations[rep]
		if !ok {
			return nil, fmt.Errorf("%w: representative %d", ErrNoAnnotation, rep)
		}
		repScores[rep] = score(ann)
	}
	out := make([]float64, n)
	// One worker is a plain call: the closure parallel.ForChunks takes would
	// escape to the heap.
	if parallel.Workers(ix.cfg.Parallelism) == 1 {
		PropagateKRange(out, ix.Table.Neighbors, repScores, ix.Table.K, 0, n)
	} else {
		parallel.ForChunks(ix.cfg.Parallelism, n, func(_ int, s parallel.Span) {
			PropagateKRange(out, ix.Table.Neighbors, repScores, ix.Table.K, s.Lo, s.Hi)
		})
	}
	if reg := ix.cfg.Telemetry; reg != nil {
		reg.Counter(metricPropagateWeighted).Inc()
		reg.Histogram(metricPropagateSeconds, nil).Observe(time.Since(start).Seconds())
	}
	return out, nil
}

// Built-in scoring functions for the common query families.

// CountScore counts boxes of the given class in a video annotation (empty
// class counts all boxes). Non-video annotations score 0.
func CountScore(class string) ScoreFunc {
	return func(ann dataset.Annotation) float64 {
		if va, ok := ann.(dataset.VideoAnnotation); ok {
			return float64(va.Count(class))
		}
		return 0
	}
}

// MatchScore converts a Boolean predicate over annotations into a 0/1 score
// for selection queries.
func MatchScore(pred func(ann dataset.Annotation) bool) ScoreFunc {
	return func(ann dataset.Annotation) float64 {
		if pred(ann) {
			return 1
		}
		return 0
	}
}

// AvgXScore returns the mean x-position of boxes of the given class, or the
// neutral position 0.5 for frames without such boxes — the paper's Section
// 6.4 regression query.
func AvgXScore(class string) ScoreFunc {
	return func(ann dataset.Annotation) float64 {
		if va, ok := ann.(dataset.VideoAnnotation); ok {
			if x, ok := va.AvgX(class); ok {
				return x
			}
		}
		return 0.5
	}
}
