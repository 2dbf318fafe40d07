package cluster

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// This file is the quantized twin of the package's candidate-generation
// scans. Every variant here streams the uint8 code plane (vecmath.
// QuantMatrix) instead of the float64 rows, converts each code distance to a
// conservative lower bound on the true distance, and skips the exact float64
// computation for rows the bound proves cannot be admitted:
//
//   - min-k scans skip a representative when bound² strictly exceeds the
//     TopK admission threshold (Offer is guaranteed to reject strictly
//     greater values; equal values still go through for the index
//     tie-break),
//   - FPF sweeps skip a record when bound² >= its current nearest-rep
//     distance (the min update needs a strict improvement),
//   - cracking skips a record when its neighbor list is full and bound >=
//     the current k-th distance (the exact path discards such rows).
//
// A skipped row is one the exact path provably rejects, and every surviving
// row is reranked through the same exact kernels — so each function is
// bitwise identical to its float-only twin at every worker count, per the
// package's concurrency contract. The quantized-vs-exact property tests pin
// this across planes, worker counts, and corpora.

// QuantScanStats counts the work a quantized scan did: Candidates is the
// number of code-plane rows examined, Reranked the subset that survived the
// bound and went through the exact float64 kernel. Callers feed these into
// the tasti_quant_candidates_total / tasti_quant_rerank_total counters; the
// ratio is the observable pruning power of the plane.
type QuantScanStats struct {
	Candidates int64
	Reranked   int64
}

// Add accumulates other into s.
func (s *QuantScanStats) Add(other QuantScanStats) {
	s.Candidates += other.Candidates
	s.Reranked += other.Reranked
}

// QuantScanner is the quantized twin of Scanner: reusable scratch for min-k
// scans that stream the code plane first and rerank survivors exactly. A
// warm QuantScanner performs zero allocations per scan. Not safe for
// concurrent use; parallel callers hold one per chunk.
type QuantScanner struct {
	codeDists []int64
	qrow      []uint8
	tk        *vecmath.TopK
	ivs       []vecmath.IndexedValue
	// Stats accumulates over every scan through this scanner.
	Stats QuantScanStats
}

// ScanInto is Scanner.ScanInto over the quantized plane: identical results,
// but only representatives whose code-distance bound clears the current
// TopK threshold are reranked through the exact kernel. repQ must hold the
// representatives' code rows aligned with reps (and share the plane's
// trained params).
func (sc *QuantScanner) ScanInto(dst []Neighbor, emb []float64, repMat vecmath.Matrix, repQ vecmath.QuantMatrix, reps []int, k int) []Neighbor {
	if repMat.Rows() != len(reps) || repQ.Rows() != len(reps) {
		panic(fmt.Sprintf("cluster: rep matrices have %d float / %d quant rows for %d reps",
			repMat.Rows(), repQ.Rows(), len(reps)))
	}
	if cap(sc.codeDists) < len(reps) {
		sc.codeDists = make([]int64, len(reps))
	}
	if cap(sc.qrow) < repQ.Dim() {
		sc.qrow = make([]uint8, repQ.Dim())
	}
	qrow := sc.qrow[:repQ.Dim()]
	qErr := vecmath.QuantizeRowInto(qrow, emb, repQ.Params())
	cds := sc.codeDists[:len(reps)]
	vecmath.CodeDistBatch(qrow, repQ, cds)
	if sc.tk == nil {
		sc.tk = vecmath.NewTopK(k)
	} else {
		sc.tk.Reset(k)
	}
	sc.Stats.Candidates += int64(len(reps))
	for j, cd := range cds {
		lb := repQ.LowerBound(cd, qErr)
		// TopK.Threshold is in the squared domain and is guaranteed to
		// reject strictly greater offers, so a strictly greater lower bound
		// proves the exact distance would be rejected too.
		if lb*lb > sc.tk.Threshold() {
			continue
		}
		sc.tk.Offer(j, vecmath.SquaredL2(emb, repMat.Row(j)))
		sc.Stats.Reranked++
	}
	sc.ivs = sc.tk.Sorted(sc.ivs[:0])
	for _, iv := range sc.ivs {
		dst = append(dst, Neighbor{Rep: reps[iv.Index], Dist: math.Sqrt(iv.Value)})
	}
	return dst
}

// BuildTableQuantPar is BuildTablePar scanning the quantized plane: the
// returned table is bitwise identical, and the stats report how much exact
// work the plane pruned. quant must be the code plane of embeddings.
func BuildTableQuantPar(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, reps []int, k, p int) (*Table, QuantScanStats) {
	if k <= 0 {
		panic(fmt.Sprintf("cluster: table needs k > 0, got %d", k))
	}
	if len(reps) == 0 {
		panic("cluster: table needs at least one representative")
	}
	n := embeddings.Rows()
	if quant.Rows() != n {
		panic(fmt.Sprintf("cluster: quant plane has %d rows for %d records", quant.Rows(), n))
	}
	for _, rep := range reps {
		if rep < 0 || rep >= n {
			panic(fmt.Sprintf("cluster: representative %d out of range [0,%d)", rep, n))
		}
	}
	repMat := vecmath.GatherRows(embeddings, reps)
	repQ := gatherQuantRows(quant, reps)
	want := k
	if len(reps) < want {
		want = len(reps)
	}
	t := &Table{
		K:         k,
		Reps:      append([]int(nil), reps...),
		Neighbors: make([][]Neighbor, n),
	}
	// Same contiguous full-capacity layout as BuildTablePar (see its comment).
	block := make([]Neighbor, n*want)
	parts := parallel.Map(p, n, func(_ int, s parallel.Span) QuantScanStats {
		var sc QuantScanner // per-chunk scratch, reused across the chunk's records
		for i := s.Lo; i < s.Hi; i++ {
			row := block[i*want : i*want : (i+1)*want]
			t.Neighbors[i] = sc.ScanInto(row, embeddings.Row(i), repMat, repQ, reps, k)
		}
		return sc.Stats
	})
	var stats QuantScanStats
	for _, part := range parts {
		stats.Add(part)
	}
	return t, stats
}

// gatherQuantRows copies the code rows at idx into a fresh plane that keeps
// the source's params and decode-error bound, aligned with GatherRows.
func gatherQuantRows(q vecmath.QuantMatrix, idx []int) vecmath.QuantMatrix {
	codes := make([]uint8, 0, len(idx)*q.Dim())
	for _, i := range idx {
		codes = append(codes, q.Row(i)...)
	}
	out, err := vecmath.QuantMatrixFromParts(codes, len(idx), q.Dim(), q.Params(), q.MaxErr())
	if err != nil {
		panic(fmt.Sprintf("cluster: gathering quant rows: %v", err))
	}
	return out
}

// FPFMixedParQuant is FPFMixedPar with the FPF prefix pruned by the
// quantized plane. It consumes r exactly as FPFMixedPar does and selects
// identical representatives at every parallelism level; only the amount of
// exact distance work changes.
func FPFMixedParQuant(r *rand.Rand, embeddings vecmath.Matrix, quant vecmath.QuantMatrix, k int, randomFrac float64, p int) ([]int, QuantScanStats) {
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
		reps, stats = fpfSweepQuant(embeddings, quant, numFPF, r.Intn(n), p)
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

// fpfSweepQuant is fpfSweep pruned by the code plane. The newest
// representative's own code row serves as the query side, so its decode
// error is already covered by the plane's tracked bound. A record is
// skipped when its bound squared reaches its current nearest-representative
// distance — the min update requires a strict improvement, so the skip can
// never change minDist, and the argmax (with its fixed chunk grid and
// smaller-index tie-break) sees identical values at every worker count.
func fpfSweepQuant(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, k, start, p int) ([]int, QuantScanStats) {
	n := embeddings.Rows()
	if quant.Rows() != n {
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
	codeDists := make([]int64, n) // chunk-disjoint writes
	type candidate struct {
		idx   int
		dist  float64
		stats QuantScanStats
	}
	cur := start
	var stats QuantScanStats
	for len(reps) < k {
		reps = append(reps, cur)
		curEmb := embeddings.Row(cur)
		curCodes := quant.Row(cur)
		parts := parallel.Map(p, n, func(_ int, s parallel.Span) candidate {
			vecmath.CodeDistBatch(curCodes, quant.RowRange(s.Lo, s.Hi), codeDists[s.Lo:s.Hi])
			var st QuantScanStats
			st.Candidates = int64(s.Hi - s.Lo)
			far, farDist := -1, -1.0
			for i := s.Lo; i < s.Hi; i++ {
				lb := quant.LowerBound(codeDists[i], quant.MaxErr())
				if lb*lb < minDist[i] {
					st.Reranked++
					if d := vecmath.SquaredL2(curEmb, embeddings.Row(i)); d < minDist[i] {
						minDist[i] = d
					}
				}
				if minDist[i] > farDist {
					far, farDist = i, minDist[i]
				}
			}
			return candidate{far, farDist, st}
		})
		far, farDist := -1, -1.0
		for _, c := range parts {
			stats.Add(c.stats)
			if c.dist > farDist || (c.dist == farDist && c.idx < far) {
				far, farDist = c.idx, c.dist
			}
		}
		if farDist == 0 { // every point coincides with a representative
			break
		}
		cur = far
	}
	return reps, stats
}

// AddRepresentativeEmbQuant is AddRepresentativeEmb pruned by the quantized
// plane: records whose neighbor list is full and whose bound already
// reaches the k-th distance skip the exact kernel. quant must be the code
// plane of embeddings; the mutation is bitwise identical to the exact path.
func (t *Table) AddRepresentativeEmbQuant(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, rep int, repEmb []float64, p int) QuantScanStats {
	if quant.Rows() != embeddings.Rows() {
		panic(fmt.Sprintf("cluster: quant plane has %d rows for %d records", quant.Rows(), embeddings.Rows()))
	}
	for _, existing := range t.Reps {
		if existing == rep {
			return QuantScanStats{}
		}
	}
	t.Reps = append(t.Reps, rep)
	qrow := make([]uint8, quant.Dim())
	qErr := vecmath.QuantizeRowInto(qrow, repEmb, quant.Params())
	codeDists := make([]int64, embeddings.Rows()) // chunk-disjoint writes
	parts := parallel.Map(p, embeddings.Rows(), func(_ int, s parallel.Span) QuantScanStats {
		vecmath.CodeDistBatch(qrow, quant.RowRange(s.Lo, s.Hi), codeDists[s.Lo:s.Hi])
		var st QuantScanStats
		st.Candidates = int64(s.Hi - s.Lo)
		for i := s.Lo; i < s.Hi; i++ {
			nbrs := t.Neighbors[i]
			if len(nbrs) >= t.K {
				// The exact path discards the update when d >= the current
				// k-th distance, so a bound at or past it proves the skip.
				if lb := quant.LowerBound(codeDists[i], qErr); lb >= nbrs[len(nbrs)-1].Dist {
					continue
				}
			}
			st.Reranked++
			d := math.Sqrt(vecmath.SquaredL2(embeddings.Row(i), repEmb))
			if len(nbrs) >= t.K && d >= nbrs[len(nbrs)-1].Dist {
				continue
			}
			t.Neighbors[i] = insertNeighbor(nbrs, Neighbor{Rep: rep, Dist: d}, t.K)
		}
		return st
	})
	var stats QuantScanStats
	for _, part := range parts {
		stats.Add(part)
	}
	return stats
}

// DistCacheFitsPlane is DistCacheFits aware of which embedding plane the
// build actually scans. With the quantized plane enabled the cached-table
// path is additionally required to pay for itself: retaining the k×n
// float64 distance matrix (8k bytes per record) must not cost more than the
// 7·dim bytes per record the 1-byte plane saves — otherwise quantization's
// memory win would be silently spent on a cache sized as if the float64
// rows were still the plane being scanned. Like DistCacheFits the decision
// depends only on the configuration, never on worker count, and both paths
// build bitwise-identical tables.
func DistCacheFitsPlane(n, k, dim int, quantized bool) bool {
	if !DistCacheFits(n, k) {
		return false
	}
	if !quantized {
		return true
	}
	return 8*k <= 7*dim
}
