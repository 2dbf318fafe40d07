package core

import (
	"errors"

	"repro/internal/cluster"
	"repro/internal/embed"
	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// ErrNoEmbedder is returned by AppendRecords when the index has no embedding
// model — e.g. an index restored with Load, which persists embeddings but
// not the model.
var ErrNoEmbedder = errors.New("core: index has no embedder; rebuild or keep the original in memory")

// AppendRecords ingests newly arrived unstructured records (for example new
// frames of a live video stream): each record is embedded and its min-k
// neighbor list over the existing representatives is computed. The records
// receive consecutive IDs starting at the current NumRecords, which the
// caller must mirror in its dataset/labeler so the IDs stay aligned.
//
// Appended records are immediately covered by Propagate and friends, and
// can later be cracked in as representatives like any other record. Like
// Crack, AppendRecords mutates the index and must be serialized against all
// other index use; the per-record embedding and neighbor scans themselves
// run across Config.Parallelism workers. The representatives are gathered
// into one contiguous block up front so every scan is a single batch-kernel
// sweep.
func (ix *Index) AppendRecords(features [][]float64) ([]int, error) {
	if ix.Embedder == nil {
		return nil, ErrNoEmbedder
	}
	if len(features) == 0 {
		return nil, nil
	}
	if len(ix.Table.Reps) == 0 {
		return nil, errors.New("core: appending records: no representatives")
	}
	reps := ix.Table.Reps
	repMat := vecmath.GatherRows(ix.Embeddings, reps)
	// With the quantized plane enabled, re-code the gathered representative
	// rows under the trained params (the code map is deterministic, so these
	// equal the stored plane rows) and scan codes first, reranking bound
	// survivors exactly — bitwise identical neighbor lists either way.
	quantized := ix.Quant.Enabled()
	var repQ vecmath.QuantMatrix
	if quantized {
		var err error
		if repQ, err = vecmath.QuantizeMatrix(repMat, ix.Quant.Params()); err != nil {
			return nil, err
		}
	}
	// Embed in parallel, scan the batch, then append in record order so IDs
	// and table rows stay sequential.
	embs := vecmath.NewMatrix(len(features), ix.Embedder.Dim())
	parallel.For(ix.cfg.Parallelism, len(features), func(i int) {
		embed.Into(ix.Embedder, embs.Row(i), features[i])
	})
	nbrLists, stats := cluster.ScanRows(embs, repMat, repQ, reps, ix.Table.K, ix.cfg.Parallelism)
	ids := make([]int, len(features))
	for i := range features {
		ids[i] = ix.Embeddings.Rows()
		ix.Embeddings.AppendRow(embs.Row(i))
		if quantized {
			// Appends under the trained params: rows outside the trained
			// range widen the plane's decode-error bound, keeping every
			// future scan bound valid.
			ix.Quant.AppendRow(embs.Row(i))
		}
		ix.Table.Neighbors = append(ix.Table.Neighbors, nbrLists[i])
	}
	PublishQuantStats(ix.cfg.Telemetry, stats)
	return ids, nil
}
