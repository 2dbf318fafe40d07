// Package cluster implements the clustering side of the TASTI index:
// furthest-point-first (FPF) representative selection and the per-record
// min-k distance tables that score propagation reads.
//
// Embeddings arrive as a vecmath.Matrix — one contiguous backing array —
// and every sweep here runs the blocked one-to-many kernels
// (vecmath.SquaredL2Batch) over row ranges of it, which is where index
// construction spends its O(N·reps·D) distance budget.
//
// Each of the three operations — the FPF sweep (which can keep the min-k
// lists too), the min-k row scan and the add-representative sweep — exists
// once. The two one-to-many sweeps take the quantized code plane as an
// optional argument: the zero vecmath.QuantMatrix scans the float64 rows, an
// enabled plane prunes with code-distance bounds and reranks the survivors
// exactly (see quant.go). The results are the same bits either way. The
// many-to-many row scan reads the float rows only.
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
// or with another AddRepresentativeEmb. Package shard therefore cracks a copy
// of the Table header (copy-on-write), so readers of a published version
// never see the mutation.
package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

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
	return newSweep(embeddings, vecmath.QuantMatrix{}, 0, p).fpf(k, start).Reps
}

// SelectPar selects k representatives, the first (1-randomFrac)·k by FPF
// and the remainder uniformly at random from records not yet selected, at
// parallelism level p (p <= 0 uses all CPUs). The paper mixes in a small
// random fraction to help average-case queries while FPF covers the
// outliers. The random draws consume r identically at every p, so the full
// selection depends only on r, never on the worker count.
//
// With tableK > 0 the sweep also keeps every record's tableK nearest for
// Selection.Table, from the distances each FPF iteration computes anyway and
// one scan against the random representatives' rows, in selection order.
//
// quant is the optional code plane of embeddings (the zero value scans the
// float rows); it prunes exact work, changing no bit, and Stats reports it.
func SelectPar(r *rand.Rand, embeddings vecmath.Matrix, quant vecmath.QuantMatrix, k int, randomFrac float64, tableK, p int) *Selection {
	n := embeddings.Rows()
	if k = min(k, n); k <= 0 {
		return &Selection{}
	}
	if randomFrac < 0 || randomFrac > 1 {
		panic(fmt.Sprintf("cluster: randomFrac %v out of [0,1]", randomFrac))
	}
	s := newSweep(embeddings, quant, tableK, p)
	if numFPF := k - int(math.Round(randomFrac*float64(k))); numFPF > 0 {
		s.fpf(numFPF, r.Intn(n))
	}
	selected := make(map[int]bool, k)
	for _, id := range s.Reps {
		selected[id] = true
	}
	from := len(s.Reps)
	for len(s.Reps) < k {
		if id := r.Intn(n); !selected[id] {
			selected[id] = true
			s.Reps = append(s.Reps, id)
		}
	}
	if s.k > 0 && from < k {
		extra := vecmath.GatherRows(embeddings, s.Reps[from:])
		parallel.ForChunks(p, n, func(_ int, sp parallel.Span) {
			dists := make([]float64, extra.Rows())
			for i := sp.Lo; i < sp.Hi; i++ {
				for j, d := range vecmath.SquaredL2Batch(embeddings.Row(i), extra, dists) {
					if d < s.bound[i] {
						s.admit(i, min(from+j, s.k), s.Reps[from+j], d)
					}
				}
			}
		})
	}
	return s
}

// Selection is one FPF sweep: representatives, pruning and state. With k > 0
// each record's k nearest sit in one n×k block, ordered (squared distance,
// selection order) like TopK. bound[i] is what record i's distance must beat
// to change anything: its k-th once its list is full, else its nearest.
type Selection struct {
	Reps                  []int
	Stats                 QuantScanStats
	emb                   vecmath.Matrix
	quant                 vecmath.QuantMatrix
	p, k                  int
	minDist, bound, dists []float64 // dists, codeDists: chunk-disjoint sweep buffers
	codeDists             []int64
	lists                 []Neighbor
	reranked              atomic.Int64
}

func newSweep(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, k, p int) *Selection {
	n := embeddings.Rows()
	if quant.Enabled() && quant.Rows() != n {
		panic(fmt.Sprintf("cluster: quant plane has %d rows for %d records", quant.Rows(), n))
	}
	s := &Selection{emb: embeddings, quant: quant, p: p, k: max(k, 0), minDist: make([]float64, n), dists: make([]float64, n)}
	for i := range s.minDist {
		s.minDist[i] = math.Inf(1)
	}
	if quant.Enabled() {
		s.codeDists = make([]int64, n)
	}
	s.bound = s.minDist
	if s.k > 0 {
		s.lists = make([]Neighbor, n*s.k)
		s.bound = append([]float64(nil), s.minDist...)
	}
	return s
}

// Table lays the lists out, square-rooted in place, as the min-k table over
// Reps (k clamped to len(Reps)): bitwise BuildTablePar(embeddings, Reps, k,
// p). It returns nil when the sweep kept no lists or Table already ran.
func (s *Selection) Table() *Table {
	if s.k == 0 {
		return nil
	}
	t := &Table{K: min(s.k, len(s.Reps)), Reps: append([]int(nil), s.Reps...), Neighbors: make([][]Neighbor, len(s.lists)/s.k)}
	for i := range t.Neighbors {
		t.Neighbors[i] = s.lists[i*s.k : i*s.k+t.K : i*s.k+t.K]
		for j := range t.Neighbors[i] {
			t.Neighbors[i][j].Dist = math.Sqrt(t.Neighbors[i][j].Dist)
		}
	}
	s.k, s.lists = 0, nil
	return t
}

// fpf runs FPF from start until the selection holds k representatives or
// every record coincides with one.
func (s *Selection) fpf(k, start int) *Selection {
	if n := s.emb.Rows(); k > 0 && (start < 0 || start >= n) {
		panic(fmt.Sprintf("cluster: FPF start %d out of range [0,%d)", start, n))
	}
	for cur := start; len(s.Reps) < k; {
		far, farDist := s.add(cur)
		if farDist == 0 {
			break
		}
		cur = far
	}
	return s
}

// add appends rep and offers every record its squared distance to it — FPF's
// min update and, with k > 0, its list — and returns the furthest record
// (ties toward the smaller index) and its distance. A record whose code bound
// squared reaches bound[i] skips the exact kernel, which changes nothing; rep's
// code row is the query side, so the plane's tracked bound covers its error.
func (s *Selection) add(rep int) (int, float64) {
	held := min(len(s.Reps), s.k) // entries in every list before rep
	s.Reps = append(s.Reps, rep)
	emb, quant, k, minDist, bound, dists, codeDists := s.emb, &s.quant, s.k, s.minDist, s.bound, s.dists, s.codeDists
	repEmb, quantized, maxErr := emb.Row(rep), quant.Enabled(), quant.MaxErr()
	parts := parallel.Map(s.p, emb.Rows(), func(_ int, sp parallel.Span) vecmath.IndexedValue {
		var exact int64
		if quantized {
			vecmath.CodeDistBatch(quant.Row(rep), quant.RowRange(sp.Lo, sp.Hi), codeDists[sp.Lo:sp.Hi])
		} else {
			vecmath.SquaredL2Batch(repEmb, emb.RowRange(sp.Lo, sp.Hi), dists[sp.Lo:sp.Hi])
		}
		far, farDist := -1, -1.0
		for i := sp.Lo; i < sp.Hi; i++ {
			if quantized {
				dists[i] = math.Inf(1) // a skipped record updates nothing
				if lb := quant.LowerBound(codeDists[i], maxErr); lb*lb < bound[i] {
					exact++
					dists[i] = vecmath.SquaredL2(repEmb, emb.Row(i))
				}
			}
			if d := dists[i]; d < bound[i] { // bound[i] >= minDist[i]: a d at or past it changes nothing
				if d < minDist[i] {
					minDist[i] = d
				}
				if k > 0 {
					s.admit(i, held, rep, d)
				}
			}
			if minDist[i] > farDist {
				far, farDist = i, minDist[i]
			}
		}
		s.reranked.Add(exact)
		return vecmath.IndexedValue{Index: far, Value: farDist}
	})
	far, farDist := -1, -1.0
	for _, c := range parts {
		if c.Value > farDist || (c.Value == farDist && c.Index < far) {
			far, farDist = c.Index, c.Value
		}
	}
	s.Stats.Reranked = s.reranked.Load()
	if quantized {
		s.Stats.Candidates += int64(emb.Rows())
	}
	return far, farDist
}

// admit inserts rep at squared distance d into record i's list of held
// entries, after any equal distances, dropping the k-th of a full list.
func (s *Selection) admit(i, held, rep int, d float64) {
	row := s.lists[i*s.k : i*s.k+min(held+1, s.k)]
	j := len(row) - 1
	for ; j > 0 && row[j-1].Dist > d; j-- {
		row[j] = row[j-1]
	}
	row[j] = Neighbor{Rep: rep, Dist: d}
	if len(row) == s.k {
		s.bound[i] = row[len(row)-1].Dist
	}
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
