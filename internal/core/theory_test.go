package core

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// TestTheorem1Bound checks the paper's Theorem 1 empirically in a setting
// that satisfies its assumptions exactly: records are points on a line, the
// scoring function f(x) = x is 1-Lipschitz, the embedding is the identity
// (so the population triplet loss is zero for any margin m <= M), and the
// representatives are dense enough that every record is within m of one.
// The theorem then bounds the expected query loss E|f(x) - f(c(x))| by
// M * K_Q with K_Q = 2 (ell_Q(x,y) = |x-y| is Lipschitz with constant 1 =
// K_Q/2 in each argument).
func TestTheorem1Bound(t *testing.T) {
	r := xrand.New(5)
	const n = 2000
	embeddings := vecmath.NewMatrix(n, 1)
	truth := make([]float64, n)
	for i := 0; i < n; i++ {
		x := r.Float64() * 10
		embeddings.Row(i)[0] = x
		truth[i] = x
	}

	for _, m := range []float64{0.5, 0.2, 0.05} {
		// Select representatives until every record is within m of one;
		// FPF gives the densest cover for a given count, so grow until the
		// margin condition max |phi(x) - phi(c(x))| < m holds.
		numReps := 4
		var reps []int
		var table *cluster.Table
		for {
			reps = cluster.FPFPar(embeddings, numReps, 0, 0)
			table = cluster.BuildTablePar(embeddings, reps, 1, 0)
			if table.MaxNearestDistance() < m || numReps >= n {
				break
			}
			numReps *= 2
		}
		anns := make(map[int]dataset.Annotation, len(reps))
		ds := make([]dataset.Annotation, n)
		for i := range ds {
			// Encode the scalar as a single-box x-position so the built-in
			// machinery can score it.
			ds[i] = dataset.VideoAnnotation{Boxes: []dataset.Box{{Class: "pt", X: truth[i] / 10}}}
		}
		for _, rep := range reps {
			anns[rep] = ds[rep]
		}
		// The query's estimate f_hat(x) is the nearest representative's
		// exact score (k = 1 propagation).
		estimate := func(i int) float64 {
			return anns[table.Nearest(i).Rep].(dataset.VideoAnnotation).Boxes[0].X * 10
		}

		// With zero triplet loss at margin m = M, Theorem 1 gives
		// E[l_Q(x, f_hat(x))] <= E[l_Q(x, f(x))] + M*K_Q = 0 + 2m.
		meanLoss := 0.0
		for i := 0; i < n; i++ {
			meanLoss += math.Abs(estimate(i) - truth[i])
		}
		meanLoss /= n
		bound := 2 * m
		if meanLoss > bound {
			t.Errorf("m=%v: mean query loss %v exceeds Theorem 1 bound %v", m, meanLoss, bound)
		}
		t.Logf("m=%v reps=%d: mean loss %.4f <= bound %.4f", m, len(reps), meanLoss, bound)
	}
}
