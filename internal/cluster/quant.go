package cluster

import (
	"fmt"

	"repro/internal/vecmath"
)

// This file holds what only the quantized plane needs. The package's scans
// take the uint8 code plane (vecmath.QuantMatrix) as an optional argument;
// when it is enabled they stream it instead of the float64 rows, convert each
// code distance to a conservative lower bound on the true distance, and skip
// the exact float64 computation for rows the bound proves cannot be admitted:
//
//   - min-k scans skip a representative when bound² strictly exceeds the
//     TopK admission threshold (Offer is guaranteed to reject strictly
//     greater values; equal values still go through for the index
//     tie-break),
//   - FPF sweeps skip a record when bound² >= its k-th distance (or, with
//     no lists kept, its nearest): list and min updates need a strict drop,
//   - cracking skips a record when its neighbor list is full and bound >=
//     the current k-th distance (the exact path discards such rows).
//
// A skipped row is one the exact path provably rejects, and every surviving
// row is reranked through the same exact kernels — so each scan is bitwise
// identical on either plane at every worker count, per the package's
// concurrency contract. The quantized-vs-exact property tests pin this
// across planes, worker counts, and corpora.

// QuantScanStats counts the work a quantized scan did: Candidates is the
// number of code-plane rows examined, Reranked the subset that survived the
// bound and went through the exact float64 kernel. Callers feed these into
// the tasti_quant_candidates_total / tasti_quant_rerank_total counters; the
// ratio is the observable pruning power of the plane. A scan of the float
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

// offerQuant offers sc.tk the representatives whose code-distance bound
// clears the current admission threshold, reranked through the exact kernel.
func (sc *Scanner) offerQuant(emb []float64, repMat vecmath.Matrix, repQ vecmath.QuantMatrix) {
	rows := repQ.Rows()
	if cap(sc.codeDists) < rows {
		sc.codeDists = make([]int64, rows)
	}
	if cap(sc.qrow) < repQ.Dim() {
		sc.qrow = make([]uint8, repQ.Dim())
	}
	qrow := sc.qrow[:repQ.Dim()]
	qErr := vecmath.QuantizeRowInto(qrow, emb, repQ.Params())
	cds := sc.codeDists[:rows]
	vecmath.CodeDistBatch(qrow, repQ, cds)
	sc.Stats.Candidates += int64(rows)
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
