package cluster

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"

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
// BuildTablePar lays the per-record lists out as full-capacity subslices of
// one contiguous block (see ScanRows), so a freshly built table is a handful
// of allocations rather than one per record; AddRepresentativeEmb later
// replaces the lists it changes with freshly allocated rows and never writes
// an existing one.
//
// A Table is not internally synchronized: AddRepresentativeEmb reassigns Reps
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
	if sc.tk == nil {
		sc.tk = vecmath.NewTopK(k)
	} else {
		sc.tk.Reset(k)
	}
	if cap(sc.dists) < len(reps) {
		sc.dists = make([]float64, len(reps))
	}
	dists := sc.dists[:len(reps)]
	vecmath.SquaredL2Batch(emb, repMat, dists)
	for j, d := range dists {
		sc.tk.Offer(j, d)
	}
	sc.ivs = sc.tk.Sorted(sc.ivs[:0])
	for _, iv := range sc.ivs {
		dst = append(dst, Neighbor{Rep: reps[iv.Index], Dist: math.Sqrt(iv.Value)})
	}
	return dst
}

// ScanRows computes, for every row of queries, its min(k, len(reps)) nearest
// representatives — the one min-k row scan behind table rescans and record
// appends — in parallel across rows at parallelism level p (p <= 0 uses all
// CPUs). repMat holds the representatives' embeddings row-aligned with reps.
// Each row is an independent computation through the shared kernels, so the
// lists are identical at every p.
//
// The scan is many-to-many against a few hundred cache-resident
// representatives, so it is compute-bound and reads the float rows only: the
// quantized plane does not pay here (see quant.go).
//
// The lists are full-capacity subslices of one contiguous block, so the scan
// is a handful of allocations rather than one per row, and a later append on
// one list cannot spill into the next.
func ScanRows(queries, repMat vecmath.Matrix, reps []int, k, p int) [][]Neighbor {
	n := queries.Rows()
	want := min(k, len(reps))
	lists := make([][]Neighbor, n)
	block := make([]Neighbor, n*want)
	parallel.ForChunks(p, n, func(_ int, s parallel.Span) {
		var sc Scanner // per-chunk scratch, reused across the chunk's rows
		for i := s.Lo; i < s.Hi; i++ {
			row := block[i*want : i*want : (i+1)*want]
			lists[i] = sc.ScanInto(row, queries.Row(i), repMat, reps, k)
		}
	})
	return lists
}

// BuildTablePar computes the min-k distance table from each embedding to the
// representatives, in parallel across records at parallelism level p (p <= 0
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
	lists := ScanRows(embeddings, vecmath.GatherRows(embeddings, reps), reps, k, p)
	return &Table{K: k, Reps: append([]int(nil), reps...), Neighbors: lists}
}

// BuildTableQuantPar is BuildTablePar under its former quantized name: quant
// is ignored and the stats are always zero.
//
// Deprecated: the min-k rescan reads the float rows only; call BuildTablePar.
func BuildTableQuantPar(embeddings vecmath.Matrix, _ vecmath.QuantMatrix, reps []int, k, p int) (*Table, QuantScanStats) {
	return BuildTablePar(embeddings, reps, k, p), QuantScanStats{}
}

// AddRepresentativePar inserts a new representative (cracking) at
// parallelism level p (p <= 0 uses all CPUs): each record's neighbor list is
// updated if the new representative is closer than its current k-th
// neighbor. Adding an existing representative is a no-op. Per-record updates
// are independent, so the result is identical at every p. The caller must
// serialize it against all other Table use.
func (t *Table) AddRepresentativePar(embeddings vecmath.Matrix, rep, p int) {
	if rep < 0 || rep >= embeddings.Rows() {
		panic(fmt.Sprintf("cluster: representative %d out of range [0,%d)", rep, embeddings.Rows()))
	}
	t.AddRepresentativeEmb(embeddings, vecmath.QuantMatrix{}, rep, embeddings.Row(rep), p)
}

// AddRepresentativeEmb is AddRepresentativePar with the representative's
// embedding row supplied explicitly, for tables whose record rows cover only
// a slice of the corpus: a sharded index records the representative under its
// corpus-global ID rep, which need not index embeddings — the shard that owns
// the record supplies repEmb. Each record's update reads only its own
// embedding row, repEmb, and its own neighbor list, so the table mutation is
// bitwise identical whether the corpus is one table or many shard-local ones.
//
// quant is the optional code plane of embeddings (the zero value scans the
// float rows): records whose neighbor list is full and whose code-distance
// bound already reaches the k-th distance skip the exact kernel, the mutation
// is the same bits, and the stats report the pruning.
func (t *Table) AddRepresentativeEmb(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, rep int, repEmb []float64, p int) QuantScanStats {
	for _, existing := range t.Reps {
		if existing == rep {
			return QuantScanStats{}
		}
	}
	t.Reps = append(t.Reps, rep)
	return t.AddRepresentativeRows(embeddings, quant, rep, repEmb, p)
}

// crackBlock is how many records' code distances a crack sweep computes per
// batch kernel call.
const crackBlock = 512

// AddRepresentativeRows is the neighbor-row half of AddRepresentativeEmb: it
// updates every record's list for the new representative rep and leaves
// t.Reps alone, for tables that share one representative list their owner
// extends once (package shard). rep must not be in any row already.
func (t *Table) AddRepresentativeRows(embeddings vecmath.Matrix, quant vecmath.QuantMatrix, rep int, repEmb []float64, p int) QuantScanStats {
	n := embeddings.Rows()
	quantized := quant.Enabled()
	if quantized && quant.Rows() != n {
		panic(fmt.Sprintf("cluster: quant plane has %d rows for %d records", quant.Rows(), n))
	}
	var stats QuantScanStats
	var reranked atomic.Int64
	var qrow []uint8
	var qErr float64
	if quantized {
		qrow = make([]uint8, quant.Dim())
		qErr = vecmath.QuantizeRowInto(qrow, repEmb, quant.Params())
		stats.Candidates = int64(n)
	}
	parallel.ForChunks(p, n, func(_ int, s parallel.Span) {
		// Code distances go block by block through one buffer per chunk, so
		// a crack allocates nothing that grows with the record count.
		var codeDists [crackBlock]int64
		var exact int64
		for lo := s.Lo; lo < s.Hi; lo += crackBlock {
			hi := min(lo+crackBlock, s.Hi)
			if quantized {
				vecmath.CodeDistBatch(qrow, quant.RowRange(lo, hi), codeDists[:hi-lo])
			}
			for i := lo; i < hi; i++ {
				nbrs := t.Neighbors[i]
				full := len(nbrs) >= t.K
				if quantized {
					// The exact test below discards the update when d >= the
					// current k-th distance, so a bound at or past it proves
					// the skip.
					if full && quant.LowerBound(codeDists[i-lo], qErr) >= nbrs[len(nbrs)-1].Dist {
						continue
					}
					exact++
				}
				d := math.Sqrt(vecmath.SquaredL2(embeddings.Row(i), repEmb))
				if full && d >= nbrs[len(nbrs)-1].Dist {
					continue
				}
				t.Neighbors[i] = insertNeighbor(nbrs, Neighbor{Rep: rep, Dist: d}, t.K)
			}
		}
		reranked.Add(exact)
	})
	stats.Reranked = reranked.Load()
	return stats
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
