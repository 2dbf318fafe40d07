package shard

import (
	"errors"
	"fmt"
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/parallel"
	"repro/internal/vecmath"
)

// AppendRecords ingests newly arrived records through the shard layer: each
// record is embedded with the shared model and min-k scanned against the
// corpus-global representative set, and the rows are appended to the LAST
// shard, whose range grows from [Lo, Hi) to [Lo, Hi+n). Records receive
// consecutive IDs starting at NumRecords, and each record's neighbor list is
// bit for bit the row a one-pass table build over the grown corpus computes —
// the representative matrix is gathered from the owner shards in
// representative-list order, and the same scan kernel runs at the same
// parallelism contract (output identical at every worker count).
//
// The append is a write like Crack: a replacement last shard with the
// extended matrix and table is built and published as the next version, one
// generation on. The records are embedded before the writer lock is taken —
// embedding reads no index state — so only the scan and the publish hold it.
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

// lastShard returns the highest-range shard — the append target.
func (v *Version) lastShard() *Shard { return v.shards[len(v.shards)-1] }

// gatherRepEmbeddings assembles the representative embedding matrix from the
// owner shards, in representative-list order — the rows
// vecmath.GatherRows takes from the whole-corpus matrix, so the scans stay
// bitwise identical at every shard count.
func (v *Version) gatherRepEmbeddings(reps []int, dim int) vecmath.Matrix {
	m := vecmath.NewMatrix(len(reps), dim)
	for j, rep := range reps {
		owner := v.owner(rep)
		copy(m.Row(j), owner.Embeddings.Row(rep-owner.Lo))
	}
	return m
}

// appended scans embedded rows against v's representative set and returns
// v's successor with them appended to a copy-on-write last shard, plus the
// IDs they received.
func (v *Version) appended(embs vecmath.Matrix) (*Version, []int) {
	last := v.lastShard()
	par := v.w.par
	reps := v.reps()
	repMat := v.gatherRepEmbeddings(reps, embs.Dim())
	n := embs.Rows()
	nbrLists := cluster.ScanRows(embs, repMat, reps, last.Table.K, par)

	// The matrix and neighbor slice grow with append semantics: the first
	// append past the split-time capacity reallocates, after which growth is
	// amortized — and writes beyond the previous version's length are
	// invisible to any reader still holding it. Writers are serialized and
	// each starts from the published version, so no two versions ever extend
	// one backing array differently.
	m := last.Embeddings
	q := last.Quant
	nbrs := last.Table.Neighbors
	ids := make([]int, n)
	for i := 0; i < n; i++ {
		ids[i] = v.total + i
		m.AppendRow(embs.Row(i))
		// The scan above reads float rows, but later cracks prune through
		// the plane: append under the trained params, where rows outside
		// the trained range widen the decode-error bound and keep every
		// future crack bound valid.
		q.AppendRow(embs.Row(i))
		nbrs = append(nbrs, nbrLists[i])
	}
	next := &Shard{
		Lo:         last.Lo,
		Hi:         last.Hi + n,
		Embeddings: m,
		Quant:      q,
		Table: &cluster.Table{
			K:         last.Table.K,
			Reps:      reps,
			Neighbors: nbrs,
		},
		Annotations: v.anns(),
	}
	shards := slices.Clone(v.shards)
	shards[len(shards)-1] = next
	return v.successor(shards, v.total+n, 1), ids
}

// NearestDistance returns record id's distance to its nearest representative
// — the per-record signal the ingest drift detector accumulates.
func (v *Version) NearestDistance(id int) float64 {
	if id < 0 || id >= v.total {
		panic(fmt.Sprintf("shard: nearest distance %d out of range [0,%d)", id, v.total))
	}
	owner := v.owner(id)
	return owner.Table.Neighbors[id-owner.Lo][0].Dist
}

// MeanNearestDistance returns the mean nearest-representative distance across
// the whole corpus — the build-time (or post-refresh) baseline the drift
// detector compares recent appends against.
func (v *Version) MeanNearestDistance() float64 {
	if v.total == 0 {
		return 0
	}
	sum := 0.0
	for _, sh := range v.shards {
		for i := range sh.Table.Neighbors {
			sum += sh.Table.Neighbors[i][0].Dist
		}
	}
	return sum / float64(v.total)
}
