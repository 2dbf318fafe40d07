package cluster

import (
	"fmt"
	"math"
	"sort"

	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// Neighbor is one entry of a record's nearest-representative list.
type Neighbor struct {
	// Rep is the representative's record ID.
	Rep int
	// Dist is the Euclidean embedding distance to that representative.
	Dist float64
}

// Table stores, for every record, its k nearest cluster representatives by
// embedding distance — the MinKDistances of the paper's Algorithm 1. It
// supports incremental representative insertion for index cracking.
//
// BuildTable lays the per-record lists out as full-capacity subslices of one
// contiguous block, so a freshly built table is a handful of allocations
// rather than one per record; AddRepresentative later replaces the lists it
// changes with freshly allocated rows and never writes an existing one.
//
// A Table is not internally synchronized: AddRepresentative reassigns Reps
// and elements of Neighbors, so callers serialize it against reads of THIS
// table and against other mutations (see the package comment). A copy of the
// Table holding its own Neighbors outer slice is untouched by it — which is
// how package shard cracks copy-on-write under concurrent readers.
type Table struct {
	// K is the number of neighbors retained per record.
	K int
	// Reps are the representative record IDs in insertion order.
	Reps []int
	// Neighbors[i] lists record i's nearest representatives, ascending by
	// distance.
	Neighbors [][]Neighbor
}

// Scanner is reusable scratch for min-k scans of one embedding against a
// gathered representative matrix: the batch-kernel distance buffer, a
// bounded TopK selector, and its output buffer. A warm Scanner performs
// zero allocations per scan, which is what keeps the table build, record
// appends, and serve-path lookups allocation-free in steady state. A Scanner
// is not safe for concurrent use; parallel callers hold one per chunk.
type Scanner struct {
	dists []float64
	tk    *vecmath.TopK
	ivs   []vecmath.IndexedValue
}

// ScanInto appends emb's min(k, len(reps)) nearest representatives to dst,
// ascending by distance (ties toward the representative earlier in reps),
// and returns the extended slice. repMat must hold the representatives'
// embeddings row-aligned with reps (vecmath.GatherRows(embeddings, reps)).
// Distances go through the same SquaredL2 kernel as every other path, then a
// final sqrt — bitwise identical to a scalar scan.
func (sc *Scanner) ScanInto(dst []Neighbor, emb []float64, repMat vecmath.Matrix, reps []int, k int) []Neighbor {
	if repMat.Rows() != len(reps) {
		panic(fmt.Sprintf("cluster: rep matrix has %d rows for %d reps", repMat.Rows(), len(reps)))
	}
	if cap(sc.dists) < len(reps) {
		sc.dists = make([]float64, len(reps))
	}
	dists := sc.dists[:len(reps)]
	vecmath.SquaredL2Batch(emb, repMat, dists)
	if sc.tk == nil {
		sc.tk = vecmath.NewTopK(k)
	} else {
		sc.tk.Reset(k)
	}
	for j, d := range dists {
		sc.tk.Offer(j, d)
	}
	sc.ivs = sc.tk.Sorted(sc.ivs[:0])
	for _, iv := range sc.ivs {
		dst = append(dst, Neighbor{Rep: reps[iv.Index], Dist: math.Sqrt(iv.Value)})
	}
	return dst
}

// BuildTable computes the min-k distance table from each embedding to the
// representatives, in parallel across records on all CPUs.
func BuildTable(embeddings vecmath.Matrix, reps []int, k int) *Table {
	return BuildTablePar(embeddings, reps, k, 0)
}

// BuildTablePar is BuildTable with an explicit parallelism level p (p <= 0
// uses all CPUs). Each record's neighbor list is an independent computation
// through the shared batch kernel, so the table is identical at every p.
func BuildTablePar(embeddings vecmath.Matrix, reps []int, k, p int) *Table {
	if k <= 0 {
		panic(fmt.Sprintf("cluster: table needs k > 0, got %d", k))
	}
	if len(reps) == 0 {
		panic("cluster: table needs at least one representative")
	}
	n := embeddings.Rows()
	for _, rep := range reps {
		if rep < 0 || rep >= n {
			panic(fmt.Sprintf("cluster: representative %d out of range [0,%d)", rep, n))
		}
	}
	repMat := vecmath.GatherRows(embeddings, reps)
	want := k
	if len(reps) < want {
		want = len(reps)
	}
	t := &Table{
		K:         k,
		Reps:      append([]int(nil), reps...),
		Neighbors: make([][]Neighbor, n),
	}
	// One contiguous block for every record's list; each row is a
	// full-capacity subslice so a later AddRepresentative append on one row
	// cannot spill into the next.
	block := make([]Neighbor, n*want)
	parallel.ForChunks(p, n, func(_ int, s parallel.Span) {
		var sc Scanner // per-chunk scratch, reused across the chunk's records
		for i := s.Lo; i < s.Hi; i++ {
			row := block[i*want : i*want : (i+1)*want]
			t.Neighbors[i] = sc.ScanInto(row, embeddings.Row(i), repMat, reps, k)
		}
	})
	return t
}

// BuildTableFromDists builds the min-k table from a precomputed
// representative-by-record squared-distance matrix — sqDists.Row(j)[i] is
// the squared distance from reps[j] to record i — as returned by
// FPFParDists and FPFMixedParDists. The matrix entries are bitwise identical
// to what a table scan would recompute (the squared-distance kernel is
// symmetric in its arguments), and representatives are offered to the top-k
// selector in the same ascending order as ScanInto, so the resulting table
// is bitwise identical to BuildTablePar(embeddings, reps, k, p) at every
// parallelism level — without streaming the embedding matrix a second time.
func BuildTableFromDists(sqDists vecmath.Matrix, reps []int, k, p int) *Table {
	if k <= 0 {
		panic(fmt.Sprintf("cluster: table needs k > 0, got %d", k))
	}
	if len(reps) == 0 {
		panic("cluster: table needs at least one representative")
	}
	if sqDists.Rows() != len(reps) {
		panic(fmt.Sprintf("cluster: distance matrix has %d rows for %d representatives", sqDists.Rows(), len(reps)))
	}
	n := sqDists.Dim()
	for _, rep := range reps {
		if rep < 0 || rep >= n {
			panic(fmt.Sprintf("cluster: representative %d out of range [0,%d)", rep, n))
		}
	}
	want := k
	if len(reps) < want {
		want = len(reps)
	}
	tbl := &Table{
		K:         k,
		Reps:      append([]int(nil), reps...),
		Neighbors: make([][]Neighbor, n),
	}
	// Same contiguous full-capacity layout as BuildTable (see its comment).
	block := make([]Neighbor, n*want)
	// The matrix is representative-major but the table is record-major, so a
	// naive per-record pass would stride through every row. Records are
	// processed in tiles instead: each representative row is read in
	// tile-sized contiguous runs while the tile's top-k selectors stay
	// cache-resident.
	const tile = 256
	parallel.ForChunks(p, n, func(_ int, s parallel.Span) {
		var tks [tile]vecmath.TopK // per-chunk scratch, recycled every tile
		var thr [tile]float64      // per-record admission bounds (TopK.Threshold)
		var ivs []vecmath.IndexedValue
		for lo := s.Lo; lo < s.Hi; lo += tile {
			hi := lo + tile
			if hi > s.Hi {
				hi = s.Hi
			}
			m := hi - lo
			for t := 0; t < m; t++ {
				tks[t].Reset(want)
				thr[t] = tks[t].Threshold()
			}
			for j := range reps {
				row := sqDists.Row(j)[lo:hi]
				for t, d := range row {
					// Most candidates are over the record's current k-th
					// distance; the cached bound rejects them without the
					// Offer call. Equal values still go through for the
					// index tie-break, which keeps the result bitwise
					// identical to the unconditional scan.
					if d > thr[t] {
						continue
					}
					tks[t].Offer(j, d)
					thr[t] = tks[t].Threshold()
				}
			}
			for t := 0; t < m; t++ {
				i := lo + t
				dst := block[i*want : i*want : (i+1)*want]
				ivs = tks[t].Sorted(ivs[:0])
				for _, iv := range ivs {
					dst = append(dst, Neighbor{Rep: reps[iv.Index], Dist: math.Sqrt(iv.Value)})
				}
				tbl.Neighbors[i] = dst
			}
		}
	})
	return tbl
}

// AddRepresentative inserts a new representative (cracking) on all CPUs:
// each record's neighbor list is updated if the new representative is closer
// than its current k-th neighbor. Adding an existing representative is a
// no-op. The caller must serialize it against all other Table use.
func (t *Table) AddRepresentative(embeddings vecmath.Matrix, rep int) {
	t.AddRepresentativePar(embeddings, rep, 0)
}

// AddRepresentativePar is AddRepresentative with an explicit parallelism
// level p (p <= 0 uses all CPUs); per-record updates are independent, so the
// result is identical at every p.
func (t *Table) AddRepresentativePar(embeddings vecmath.Matrix, rep, p int) {
	if rep < 0 || rep >= embeddings.Rows() {
		panic(fmt.Sprintf("cluster: representative %d out of range [0,%d)", rep, embeddings.Rows()))
	}
	t.AddRepresentativeEmb(embeddings, rep, embeddings.Row(rep), p)
}

// AddRepresentativeEmb is AddRepresentativePar with the representative's
// embedding row supplied explicitly, for tables whose record rows cover only
// a slice of the corpus: a sharded index records the representative under its
// corpus-global ID rep, which need not index embeddings — the shard that owns
// the record supplies repEmb. Each record's update reads only its own
// embedding row, repEmb, and its own neighbor list, so the table mutation is
// bitwise identical whether the corpus is one table or many shard-local ones.
func (t *Table) AddRepresentativeEmb(embeddings vecmath.Matrix, rep int, repEmb []float64, p int) {
	for _, existing := range t.Reps {
		if existing == rep {
			return
		}
	}
	t.Reps = append(t.Reps, rep)
	parallel.ForChunks(p, embeddings.Rows(), func(_ int, s parallel.Span) {
		for i := s.Lo; i < s.Hi; i++ {
			d := math.Sqrt(vecmath.SquaredL2(embeddings.Row(i), repEmb))
			nbrs := t.Neighbors[i]
			if len(nbrs) >= t.K && d >= nbrs[len(nbrs)-1].Dist {
				continue
			}
			t.Neighbors[i] = insertNeighbor(nbrs, Neighbor{Rep: rep, Dist: d}, t.K)
		}
	})
}

// insertNeighbor returns nbrs with nb inserted at its distance rank (after
// any equal distances) and the list cut back to k entries — as a freshly
// allocated row. The old row is never written: an index version published
// before the crack may still be propagating from it (see package shard).
func insertNeighbor(nbrs []Neighbor, nb Neighbor, k int) []Neighbor {
	pos := sort.Search(len(nbrs), func(j int) bool { return nbrs[j].Dist > nb.Dist })
	row := make([]Neighbor, min(len(nbrs)+1, k))
	copy(row, nbrs[:pos])
	row[pos] = nb
	copy(row[pos+1:], nbrs[pos:])
	return row
}

// Nearest returns record i's closest representative and distance.
func (t *Table) Nearest(i int) Neighbor {
	return t.Neighbors[i][0]
}

// MaxNearestDistance returns the maximum over records of the distance to
// the nearest representative.
func (t *Table) MaxNearestDistance() float64 {
	worst := 0.0
	for _, nbrs := range t.Neighbors {
		if nbrs[0].Dist > worst {
			worst = nbrs[0].Dist
		}
	}
	return worst
}

// Validate checks table invariants: sorted neighbor lists, list lengths
// min(K, len(Reps)), and neighbor IDs that are actual representatives.
func (t *Table) Validate() error {
	repSet := make(map[int]bool, len(t.Reps))
	for _, rep := range t.Reps {
		if repSet[rep] {
			return fmt.Errorf("cluster: duplicate representative %d", rep)
		}
		repSet[rep] = true
	}
	want := t.K
	if len(t.Reps) < want {
		want = len(t.Reps)
	}
	for i, nbrs := range t.Neighbors {
		if len(nbrs) != want {
			return fmt.Errorf("cluster: record %d has %d neighbors, want %d", i, len(nbrs), want)
		}
		for j, nb := range nbrs {
			if !repSet[nb.Rep] {
				return fmt.Errorf("cluster: record %d neighbor %d is not a representative", i, nb.Rep)
			}
			if j > 0 && nbrs[j-1].Dist > nb.Dist {
				return fmt.Errorf("cluster: record %d neighbors out of order at %d", i, j)
			}
		}
	}
	return nil
}
