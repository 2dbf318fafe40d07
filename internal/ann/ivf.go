// Package ann provides approximate nearest-neighbor search for the index's
// distance computations. The paper computes exact distances from every
// record to every cluster representative — O(N·N2·D) — which dominates index
// construction at corpus scale; an inverted-file (IVF) index over the
// representatives makes that step sub-linear in N2 at a small recall cost.
//
// The index stores its vectors, coarse centroids, and per-cell member blocks
// as contiguous vecmath.Matrix rows, so both the Lloyd assignment sweep and
// query-time cell probing stream the blocked one-to-many kernels instead of
// chasing per-vector pointers. Probing uses the exact SquaredL2 kernel
// shared with the rest of the pipeline; only the Lloyd assignment uses the
// |a|²+|b|²−2a·b decomposition, where the distance is a transient comparison
// key that is never persisted (see docs/ARCHITECTURE.md, "Memory layout &
// kernels"). A reusable Searcher makes steady-state probing allocation-free.
package ann

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/parallel"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// Config parameterizes IVF construction.
type Config struct {
	// Cells is the number of coarse k-means cells (default ~sqrt(#vectors)).
	Cells int
	// Iterations is the number of Lloyd iterations (default 10).
	Iterations int
	// Parallelism bounds the worker count for construction and table
	// probing (<= 0 uses all CPUs); results are identical at every value.
	Parallelism int
	// Seed makes construction deterministic.
	Seed int64
}

// DefaultConfig sizes the cell count to the square root of the vector count.
func DefaultConfig(numVectors int, seed int64) Config {
	cells := int(math.Sqrt(float64(numVectors)))
	if cells < 1 {
		cells = 1
	}
	return Config{Cells: cells, Iterations: 10, Seed: seed}
}

// IVF is an inverted-file index over a fixed vector set: vectors are
// assigned to their nearest coarse centroid, and a query scans only the
// nprobe nearest cells.
type IVF struct {
	vectors   vecmath.Matrix
	centroids vecmath.Matrix
	lists     [][]int
	// cellVecs[c] holds the vectors of cell c gathered into one contiguous
	// block, row-aligned with lists[c], so probing a cell is one batch-kernel
	// sweep over sequential memory.
	cellVecs []vecmath.Matrix
}

// Build constructs the index with k-means coarse quantization (FPF
// initialization followed by Lloyd iterations).
func Build(cfg Config, vectors vecmath.Matrix) (*IVF, error) {
	if vectors.Rows() == 0 {
		return nil, fmt.Errorf("ann: no vectors")
	}
	if cfg.Cells <= 0 {
		return nil, fmt.Errorf("ann: cells must be positive, got %d", cfg.Cells)
	}
	n := vectors.Rows()
	cells := cfg.Cells
	if cells > n {
		cells = n
	}

	// FPF seeds the centroids with well-spread vectors, then Lloyd refines.
	r := xrand.New(cfg.Seed)
	seeds := cluster.FPFPar(vectors, cells, r.Intn(n), cfg.Parallelism)
	centroids := vecmath.GatherRows(vectors, seeds)

	assign := make([]int, n)
	centNorms := make([]float64, centroids.Rows())
	for iter := 0; iter < cfg.Iterations; iter++ {
		// The assignment sweep is the O(N·cells·D) hot loop; per-vector
		// assignments are independent, so it shards cleanly. The nearest
		// centroid is picked via the |c|²−2v·c decomposition (the |v|² term
		// is constant per vector, so it cannot change the argmin): the
		// distance here is a transient comparison key, never persisted, which
		// is exactly where the kernel contract admits the decomposed form.
		vecmath.NormsSquared(centroids, centNorms)
		changed := parallel.Reduce(cfg.Parallelism, n, false,
			func(_ int, s parallel.Span) bool {
				dots := make([]float64, centroids.Rows()) // per-chunk scratch
				changed := false
				for i := s.Lo; i < s.Hi; i++ {
					vecmath.DotBatch(vectors.Row(i), centroids, dots)
					best, bestD := 0, math.Inf(1)
					for c, dot := range dots {
						if d := centNorms[c] - 2*dot; d < bestD {
							best, bestD = c, d
						}
					}
					if assign[i] != best {
						assign[i] = best
						changed = true
					}
				}
				return changed
			},
			func(a, b bool) bool { return a || b })
		if !changed && iter > 0 {
			break
		}
		// Recompute centroids; empty cells keep their previous position.
		// This accumulation stays serial: it is O(N·D) against the sweep's
		// O(N·cells·D), and a record-order float sum keeps the centroids
		// identical at every worker count.
		sums := vecmath.NewMatrix(centroids.Rows(), vectors.Dim())
		counts := make([]int, centroids.Rows())
		for i := 0; i < n; i++ {
			vecmath.AXPY(sums.Row(assign[i]), 1, vectors.Row(i))
			counts[assign[i]]++
		}
		for c := 0; c < centroids.Rows(); c++ {
			if counts[c] == 0 {
				continue
			}
			dst, src := centroids.Row(c), sums.Row(c)
			for j := range src {
				dst[j] = src[j] / float64(counts[c])
			}
		}
	}

	lists := make([][]int, centroids.Rows())
	for i := 0; i < n; i++ {
		lists[assign[i]] = append(lists[assign[i]], i)
	}
	cellVecs := make([]vecmath.Matrix, len(lists))
	for c, ids := range lists {
		cellVecs[c] = vecmath.GatherRows(vectors, ids)
	}
	ix := &IVF{
		vectors:   vectors,
		centroids: centroids,
		lists:     lists,
		cellVecs:  cellVecs,
	}
	return ix, nil
}

// NumCells returns the number of coarse cells.
func (ix *IVF) NumCells() int { return ix.centroids.Rows() }

// Searcher is reusable scratch for IVF probes: centroid and candidate
// distance buffers plus the bounded TopK selectors. A warm Searcher performs
// zero allocations per Search. A Searcher is not safe for concurrent use;
// parallel callers hold one per chunk.
type Searcher struct {
	centDists []float64
	candDists []float64
	cellTK    *vecmath.TopK
	candTK    *vecmath.TopK
	cells     []vecmath.IndexedValue
	out       []vecmath.IndexedValue
}

// Search returns the approximate k nearest vectors to q in ix, scanning the
// nprobe nearest cells. Results are ascending by Euclidean distance (ties by
// vector ID); Value holds the distance and Index the vector's position in
// the build set. The returned slice is the Searcher's internal buffer, valid
// until the next call.
func (s *Searcher) Search(ix *IVF, q []float64, k, nprobe int) []vecmath.IndexedValue {
	if k <= 0 {
		return nil
	}
	if nprobe <= 0 {
		nprobe = 1
	}
	ncent := ix.centroids.Rows()
	if nprobe > ncent {
		nprobe = ncent
	}
	if s.cellTK == nil {
		s.cellTK = vecmath.NewTopK(nprobe)
	} else {
		s.cellTK.Reset(nprobe)
	}
	if cap(s.centDists) < ncent {
		s.centDists = make([]float64, ncent)
	}
	centDists := s.centDists[:ncent]
	vecmath.SquaredL2Batch(q, ix.centroids, centDists)
	for c, d := range centDists {
		s.cellTK.Offer(c, d)
	}
	s.cells = s.cellTK.Sorted(s.cells[:0])

	if s.candTK == nil {
		s.candTK = vecmath.NewTopK(k)
	} else {
		s.candTK.Reset(k)
	}
	for _, cell := range s.cells {
		ids := ix.lists[cell.Index]
		if len(ids) == 0 {
			continue
		}
		if cap(s.candDists) < len(ids) {
			s.candDists = make([]float64, len(ids))
		}
		cd := s.candDists[:len(ids)]
		vecmath.SquaredL2Batch(q, ix.cellVecs[cell.Index], cd)
		for j, d := range cd {
			s.candTK.Offer(ids[j], d)
		}
	}
	s.out = s.candTK.Sorted(s.out[:0])
	for i := range s.out {
		s.out[i].Value = math.Sqrt(s.out[i].Value)
	}
	return s.out
}

// Search is the convenience form of Searcher.Search: it allocates fresh
// scratch per call and returns a slice the caller owns. Hot loops hold a
// Searcher instead.
func (ix *IVF) Search(q []float64, k, nprobe int) []vecmath.IndexedValue {
	var s Searcher
	return s.Search(ix, q, k, nprobe)
}

// BuildTableApprox builds a cluster.Table like cluster.BuildTablePar, but uses
// an IVF over the representative embeddings so each record probes only
// nprobe cells instead of scanning every representative. Neighbor lists may
// miss true nearest representatives with small probability; nprobe trades
// recall for speed.
func BuildTableApprox(embeddings vecmath.Matrix, reps []int, k, nprobe int, cfg Config) (*cluster.Table, error) {
	if k <= 0 {
		return nil, fmt.Errorf("ann: table needs k > 0, got %d", k)
	}
	for _, rep := range reps {
		if rep < 0 || rep >= embeddings.Rows() {
			return nil, fmt.Errorf("ann: representative %d out of range", rep)
		}
	}
	repVecs := vecmath.GatherRows(embeddings, reps)
	ivf, err := Build(cfg, repVecs)
	if err != nil {
		return nil, err
	}
	t := &cluster.Table{
		K:         k,
		Reps:      append([]int(nil), reps...),
		Neighbors: make([][]cluster.Neighbor, embeddings.Rows()),
	}
	// Per-record probes are independent reads of the immutable IVF; one
	// Searcher per chunk keeps the sweep allocation-light.
	parallel.ForChunks(cfg.Parallelism, embeddings.Rows(), func(_ int, sp parallel.Span) {
		var s Searcher
		for i := sp.Lo; i < sp.Hi; i++ {
			found := s.Search(ivf, embeddings.Row(i), k, nprobe)
			nbrs := make([]cluster.Neighbor, len(found))
			for j, f := range found {
				nbrs[j] = cluster.Neighbor{Rep: reps[f.Index], Dist: f.Value}
			}
			t.Neighbors[i] = nbrs
		}
	})
	return t, nil
}
