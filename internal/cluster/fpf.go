// Package cluster implements the clustering side of the TASTI index:
// furthest-point-first (FPF) representative selection and the per-record
// min-k distance tables that score propagation reads.
//
// Embeddings arrive as a vecmath.Matrix — one contiguous backing array —
// and every sweep here runs the blocked one-to-many kernels
// (vecmath.SquaredL2Batch) over row ranges of it, which is where index
// construction spends its O(N·reps·D) distance budget.
//
// Each of the three operations — the FPF sweep, the min-k row scan and the
// add-representative sweep — exists once and takes the quantized code plane
// as an optional argument: the zero vecmath.QuantMatrix scans the float64
// rows, an enabled plane prunes with code-distance bounds and reranks the
// survivors exactly (see quant.go). The results are the same bits either way.
//
// # Concurrency contract
//
// The package functions parallelize internally over internal/parallel and
// return results that are bitwise identical at every worker count: each
// record's distances are computed by the same kernel whatever chunk it lands
// in. The functions themselves are safe to call concurrently on distinct
// inputs, but a *Table is not internally synchronized: AddRepresentativeEmb
// reassigns Reps and elements of Neighbors, so callers must not run it
// concurrently with reads of the same Table (Nearest, Validate, propagation)
// or with another AddRepresentativeEmb. core.Index.Crack inherits this
// contract; package shard instead cracks a copy of the Table header
// (copy-on-write), so readers of a published version never see the mutation.
package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// FPFPar selects k representatives from the embeddings with the
// furthest-point-first (Gonzalez, 1985) algorithm, starting from the record
// with the given index, at parallelism level p (p <= 0 uses all CPUs). It
// returns representative indices in selection order and runs in O(N·k)
// distance computations. FPF 2-approximates the optimal maximum
// intra-cluster distance, the property the paper's analysis relies on.
//
// The selection is identical at every p: each iteration's distance sweep is
// an argmax reduced over a fixed chunk grid with ties broken toward the
// smaller record index, and each chunk runs the same one-to-many kernel, so
// the chosen representative never depends on the worker count.
func FPFPar(embeddings vecmath.Matrix, k, start, p int) []int {
	reps, _ := fpfSweep(embeddings, vecmath.QuantMatrix{}, k, start, p)
	return reps
}

// fpfSweep is the FPF loop. With an enabled plane (the code plane of
// embeddings) a record's exact distance to the newest representative is
// skipped when its code-distance bound squared reaches its current
// nearest-representative distance: the min update needs a strict
// improvement, so the skip can never change minDist, and the argmax sees
// identical values on either plane at every worker count. The newest
// representative's own code row is the query side, so its decode error is
// already covered by the plane's tracked bound.
func fpfSweep(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, k, start, p int) ([]int, QuantScanStats) {
	n := embeddings.Rows()
	quantized := quant.Enabled()
	if quantized && quant.Rows() != n {
		panic(fmt.Sprintf("cluster: quant plane has %d rows for %d records", quant.Rows(), n))
	}
	if k <= 0 {
		return nil, QuantScanStats{}
	}
	if k > n {
		k = n
	}
	if start < 0 || start >= n {
		panic(fmt.Sprintf("cluster: FPF start %d out of range [0,%d)", start, n))
	}
	reps := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	// One sweep buffer on the plane being scanned, overwritten per iteration
	// with chunk-disjoint writes.
	var dists []float64
	var codeDists []int64
	if quantized {
		codeDists = make([]int64, n)
	} else {
		dists = make([]float64, n)
	}
	// Each iteration updates every record's distance to the newest
	// representative and finds the global argmax — the dominant cost of
	// index construction, so the sweep is the pipeline's hottest loop.
	type candidate struct {
		idx      int
		dist     float64
		reranked int64
	}
	var stats QuantScanStats
	cur := start
	for len(reps) < k {
		reps = append(reps, cur)
		curEmb := embeddings.Row(cur)
		parts := parallel.Map(p, n, func(_ int, s parallel.Span) candidate {
			var reranked int64
			if quantized {
				vecmath.CodeDistBatch(quant.Row(cur), quant.RowRange(s.Lo, s.Hi), codeDists[s.Lo:s.Hi])
				for i := s.Lo; i < s.Hi; i++ {
					if lb := quant.LowerBound(codeDists[i], quant.MaxErr()); lb*lb < minDist[i] {
						reranked++
						if d := vecmath.SquaredL2(curEmb, embeddings.Row(i)); d < minDist[i] {
							minDist[i] = d
						}
					}
				}
			} else {
				vecmath.SquaredL2Batch(curEmb, embeddings.RowRange(s.Lo, s.Hi), dists[s.Lo:s.Hi])
				for i := s.Lo; i < s.Hi; i++ {
					if dists[i] < minDist[i] {
						minDist[i] = dists[i]
					}
				}
			}
			far, farDist := -1, -1.0
			for i := s.Lo; i < s.Hi; i++ {
				if minDist[i] > farDist {
					far, farDist = i, minDist[i]
				}
			}
			return candidate{far, farDist, reranked}
		})
		far, farDist := -1, -1.0
		for _, c := range parts {
			stats.Reranked += c.reranked
			if c.dist > farDist || (c.dist == farDist && c.idx < far) {
				far, farDist = c.idx, c.dist
			}
		}
		if quantized {
			stats.Candidates += int64(n)
		}
		if farDist == 0 { // every point coincides with a representative
			break
		}
		cur = far
	}
	return reps, stats
}

// FPFMixedPar selects k representatives, the first (1-randomFrac)·k by FPF
// and the remainder uniformly at random from records not yet selected, at
// parallelism level p (p <= 0 uses all CPUs). The paper mixes in a small
// random fraction to help average-case queries while FPF covers the
// outliers. The random draws consume r identically at every p, so the full
// selection depends only on r, never on the worker count.
//
// quant is the optional code plane of embeddings (the zero value scans the
// float rows): it prunes the FPF prefix's exact distance work and selects
// identical representatives; the stats report how much it pruned.
func FPFMixedPar(r *rand.Rand, embeddings vecmath.Matrix, quant vecmath.QuantMatrix, k int, randomFrac float64, p int) ([]int, QuantScanStats) {
	n := embeddings.Rows()
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil, QuantScanStats{}
	}
	if randomFrac < 0 || randomFrac > 1 {
		panic(fmt.Sprintf("cluster: randomFrac %v out of [0,1]", randomFrac))
	}
	numRandom := int(math.Round(randomFrac * float64(k)))
	numFPF := k - numRandom
	var reps []int
	var stats QuantScanStats
	selected := make(map[int]bool, k)
	if numFPF > 0 {
		reps, stats = fpfSweep(embeddings, quant, numFPF, r.Intn(n), p)
		for _, id := range reps {
			selected[id] = true
		}
	}
	for len(reps) < k {
		id := r.Intn(n)
		if selected[id] {
			continue
		}
		selected[id] = true
		reps = append(reps, id)
	}
	return reps, stats
}

// RandomReps selects k distinct representatives uniformly at random, the
// baseline the paper's lesion study compares FPF clustering against.
func RandomReps(r *rand.Rand, n, k int) []int {
	if k > n {
		k = n
	}
	if k <= 0 {
		return nil
	}
	perm := r.Perm(n)
	reps := append([]int(nil), perm[:k]...)
	return reps
}
