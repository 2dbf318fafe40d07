package cluster

// This file holds what only the quantized plane needs. The package's two
// one-to-many sweeps take the uint8 code plane (vecmath.QuantMatrix) as an
// optional argument; when it is enabled they stream it instead of the
// float64 rows, convert each code distance to a conservative lower bound on
// the true distance, and skip the exact float64 computation for rows the
// bound proves cannot be admitted:
//
//   - FPF sweeps (SelectPar, FPFPar) skip a record when bound² >= its k-th
//     distance (or, with no lists kept, its nearest): list and min updates
//     need a strict drop,
//   - cracking (AddRepresentativeEmb, AddRepresentativeRows) skips a record
//     when its neighbor list is full and bound >= the current k-th distance
//     (the exact path discards such rows).
//
// A skipped row is one the exact path provably rejects, and every surviving
// row is reranked through the same exact kernels — so each sweep is bitwise
// identical on either plane at every worker count, per the package's
// concurrency contract. The quantized-vs-exact property tests pin this
// across planes, worker counts, and corpora.
//
// The min-k row scan (ScanRows, Scanner, BuildTablePar) has no plane
// argument: it runs every record against a few hundred cache-resident
// representatives, so it is compute-bound, and the code plane measured at
// parity with the float rows at 20k records and slower at 200k and 1M.
// Compression pays only where a scan is bandwidth-bound, which the
// one-to-many sweeps are at scale.

// QuantScanStats counts the work a quantized sweep did: Candidates is the
// number of code-plane rows examined, Reranked the subset that survived the
// bound and went through the exact float64 kernel. Callers feed these into
// the tasti_quant_candidates_total / tasti_quant_rerank_total counters; the
// ratio is the observable pruning power of the plane. A sweep of the float
// rows counts nothing.
type QuantScanStats struct {
	Candidates int64
	Reranked   int64
}

// Add accumulates other into s.
func (s *QuantScanStats) Add(other QuantScanStats) {
	s.Candidates += other.Candidates
	s.Reranked += other.Reranked
}
