package shard

import (
	"errors"
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// AppendRecords ingests newly arrived records: each record is embedded with
// the shared model and min-k scanned against the representative set, and the
// rows extend the one record range, so every shard view widens with it.
// Records receive consecutive IDs starting at NumRecords, and each record's
// neighbor list is bit for bit the row a one-pass table build over the grown
// corpus computes — the same scan kernel over the representative matrix
// gathered in representative-list order, at the same parallelism contract
// (output identical at every worker count).
//
// The append is a write like Crack: the extended matrix, plane and table are
// published as the next version, one generation on. The records are embedded
// before the writer lock is taken — embedding reads no index state — so only
// the scan and the publish hold it.
func (x *Index) AppendRecords(features [][]float64) ([]int, error) {
	w := x.Pin().w
	if w.emb == nil {
		return nil, core.ErrNoEmbedder
	}
	if len(features) == 0 {
		return nil, nil
	}
	embs := vecmath.NewMatrix(len(features), w.emb.Dim())
	parallel.ForChunks(w.par, len(features), func(_ int, s parallel.Span) {
		for i := s.Lo; i < s.Hi; i++ {
			embed.Into(w.emb, embs.Row(i), features[i])
		}
	})
	var ids []int
	err := x.write(func(cur *Version) (*Version, error) {
		if cur.RepCount() == 0 {
			return nil, errors.New("shard: appending records: no representatives")
		}
		var next *Version
		next, ids = cur.appended(embs)
		return next, nil
	})
	return ids, err
}

// appended scans embedded rows against v's representative set and returns
// v's successor with them appended to the one range, plus the IDs they
// received.
func (v *Version) appended(embs vecmath.Matrix) (*Version, []int) {
	reps := v.table.Reps
	nbrLists := cluster.ScanRows(embs, vecmath.GatherRows(v.emb, reps), reps, v.table.K, v.w.par)

	// The matrix, plane and neighbor slice grow with append semantics: the
	// first append past the split-time capacity reallocates, after which
	// growth is amortized — and writes beyond the previous version's length
	// are invisible to any reader still holding it. Writers are serialized
	// and each starts from the published version, so no two versions ever
	// extend one backing array differently.
	m, q, nbrs := v.emb, v.quant, v.table.Neighbors
	total := v.NumRecords()
	ids := make([]int, embs.Rows())
	for i := range ids {
		ids[i] = total + i
		m.AppendRow(embs.Row(i))
		// The scan above reads float rows, but later cracks prune through
		// the plane: append under the trained params, where rows outside
		// the trained range widen the decode-error bound and keep every
		// future crack bound valid.
		q.AppendRow(embs.Row(i))
		nbrs = append(nbrs, nbrLists[i])
	}
	next := v.successor(1)
	next.emb, next.quant = m, q
	next.table = &cluster.Table{K: v.table.K, Reps: reps, Neighbors: nbrs}
	return next, ids
}

// NearestDistance returns record id's distance to its nearest representative
// — the per-record signal the ingest drift detector accumulates.
func (v *Version) NearestDistance(id int) float64 {
	if total := v.NumRecords(); id < 0 || id >= total {
		panic(fmt.Sprintf("shard: nearest distance %d out of range [0,%d)", id, total))
	}
	return v.table.Neighbors[id][0].Dist
}

// MeanNearestDistance returns the mean nearest-representative distance across
// the whole corpus — the build-time (or post-refresh) baseline the drift
// detector compares recent appends against.
func (v *Version) MeanNearestDistance() float64 {
	if len(v.table.Neighbors) == 0 {
		return 0
	}
	sum := 0.0
	for _, row := range v.table.Neighbors {
		sum += row[0].Dist
	}
	return sum / float64(len(v.table.Neighbors))
}
