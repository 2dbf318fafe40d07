package core

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/parallel"
)

// ScoreFunc turns a target-labeler output into a numeric query-specific
// score — the paper's Section 4.2 developer API. Examples: count of "car"
// boxes for an aggregation query, 0/1 predicate match for a selection query.
type ScoreFunc func(ann dataset.Annotation) float64

// invDistEps regularizes inverse-distance weights so exact matches do not
// divide by zero.
const invDistEps = 1e-9

// propagateRange scores records [lo, hi): the exact score for zero-distance
// records (representatives), the inverse-distance-weighted mean of the k
// nearest representatives elsewhere. Each record's value depends only on its
// own neighbor list and the representative scores, so any partition of the
// records into ranges produces bitwise-identical output.
func propagateRange(out []float64, neighbors [][]cluster.Neighbor, repScores []float64, k, lo, hi int) {
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

// repScores evaluates score on every representative's annotation into a
// dense slice indexed by record ID. Entries for non-representatives are
// zeros no read path touches.
func repScores(t *cluster.Table, anns map[int]dataset.Annotation, score ScoreFunc) ([]float64, error) {
	rs := make([]float64, len(t.Neighbors))
	for _, rep := range t.Reps {
		ann, ok := anns[rep]
		if !ok {
			return nil, fmt.Errorf("%w: representative %d", ErrNoAnnotation, rep)
		}
		rs[rep] = score(ann)
	}
	return rs, nil
}

// PropagateK computes a proxy score for every record of table t (Section
// 4.3): the exact score on representatives and the inverse-distance-weighted
// mean of the k <= t.K nearest representatives' scores elsewhere, with anns
// holding every representative's annotation. The per-record loop runs on
// the fixed chunk grid across par workers; each record reads only its own
// neighbor row and the representative scores, so the output is identical at
// every worker count. It is the one propagation: core.Index.Propagate and
// the served index's PropagateK both run it.
func PropagateK(t *cluster.Table, anns map[int]dataset.Annotation, score ScoreFunc, k, par int) ([]float64, error) {
	if k <= 0 || k > t.K {
		return nil, fmt.Errorf("core: propagation k=%d outside [1,%d]", k, t.K)
	}
	rs, err := repScores(t, anns, score)
	if err != nil {
		return nil, err
	}
	nbrs := t.Neighbors
	out := make([]float64, len(nbrs))
	// One worker is a plain call: the closure parallel.ForChunks takes would
	// escape to the heap.
	if parallel.Workers(par) == 1 {
		propagateRange(out, nbrs, rs, k, 0, len(nbrs))
		return out, nil
	}
	parallel.ForChunks(par, len(nbrs), func(_ int, c parallel.Span) {
		propagateRange(out, nbrs, rs, k, c.Lo, c.Hi)
	})
	return out, nil
}

// PropagateNearest gives every record of table t its nearest
// representative's exact score and the distance to it — the k=1 scoring
// with distance tie-breaking that limit queries use — on the same worker
// grid as PropagateK.
func PropagateNearest(t *cluster.Table, anns map[int]dataset.Annotation, score ScoreFunc, par int) (scores, dists []float64, err error) {
	rs, err := repScores(t, anns, score)
	if err != nil {
		return nil, nil, err
	}
	nbrs := t.Neighbors
	scores = make([]float64, len(nbrs))
	dists = make([]float64, len(nbrs))
	parallel.ForChunks(par, len(nbrs), func(_ int, c parallel.Span) {
		for i := c.Lo; i < c.Hi; i++ {
			nb := nbrs[i][0]
			scores[i] = rs[nb.Rep]
			dists[i] = nb.Dist
		}
	})
	return scores, dists, nil
}

// Propagate is PropagateK over the index's table at its full depth, on
// Config.Parallelism workers. It publishes no metric: the served index
// observes its propagations per proxy-column miss.
func (ix *Index) Propagate(score ScoreFunc) ([]float64, error) {
	return PropagateK(ix.Table, ix.Annotations, score, ix.Table.K, ix.cfg.Parallelism)
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
