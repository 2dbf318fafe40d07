package shard

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// Clone returns a deep copy of the version as an index of its own: every
// shard's embedding matrix and neighbor rows, and the one representative list
// and annotation map its shards share, are freshly allocated, so cracking or
// appending to the clone shares no memory with the original (and vice
// versa). The embedding model is shared — it is immutable — while the clone
// starts at generation 0 with an empty proxy-column store and telemetry
// wiring is NOT carried over. The benchmarks reset their index state with it
// between rounds.
//
// Clone reads one immutable version, so it needs no serialization against
// anything.
func (v *Version) Clone() *Index {
	reps, anns := slices.Clone(v.reps()), maps.Clone(v.anns())
	shards := make([]*Shard, len(v.shards))
	for s, sh := range v.shards {
		data := append([]float64(nil), sh.Embeddings.Data()...)
		m, err := vecmath.MatrixFromFlat(data, sh.Embeddings.Rows(), sh.Embeddings.Dim())
		if err != nil {
			// A live shard's matrix always has a consistent shape.
			panic(fmt.Sprintf("shard: cloning shard %d: %v", s, err))
		}
		nbrs := make([][]cluster.Neighbor, len(sh.Table.Neighbors))
		for i := range nbrs {
			nbrs[i] = append([]cluster.Neighbor(nil), sh.Table.Neighbors[i]...)
		}
		shards[s] = &Shard{
			Lo:         sh.Lo,
			Hi:         sh.Hi,
			Embeddings: m,
			Quant:      sh.Quant.Clone(),
			Table: &cluster.Table{
				K:         sh.Table.K,
				Reps:      reps,
				Neighbors: nbrs,
			},
			Annotations: anns,
		}
	}
	return newIndex(wiring{par: v.w.par, emb: v.w.emb}, v.Stats, shards, v.total)
}

// Requantize retrains the quantized scan plane's parameters over the index's
// current embedding rows and re-codes every shard under them.
//
// Appends after build quantize under the build-time parameters; rows outside
// the trained range widen the plane's decode-error bound, which keeps scans
// correct but prunes less. The drift refresher refits after its crack batch
// (CrackAndRequantize) so a drifted corpus gets a freshly fitted grid — a
// pure pruning improvement with zero effect on any result, since every scan
// reranks bound survivors against the unchanged float rows.
//
// A write like any other, except that no result moves: the version it
// publishes keeps its predecessor's generation and proxy columns. When no
// shard's plane has widened its decode-error bound since it was coded, the
// refit would buy no pruning, and Requantize publishes nothing.
func (x *Index) Requantize() { x.CrackAndRequantize(nil, nil) }

// CrackAndRequantize is CrackInOrder followed by Requantize, published as
// one version: the drift refresher's batch, which a reader sees whole or not
// at all.
func (x *Index) CrackAndRequantize(ids []int, anns map[int]dataset.Annotation) (added int) {
	_ = x.write(func(cur *Version) (*Version, error) {
		next, n := cur.cracked(ids, anns)
		added = n
		if next == nil {
			next = cur
		}
		if !slices.ContainsFunc(next.shards, func(sh *Shard) bool { return sh.Quant.Widened() }) {
			if next == cur {
				return nil, nil
			}
			return next, nil
		}
		mats := make([]vecmath.Matrix, len(next.shards))
		for s, sh := range next.shards {
			mats[s] = sh.Embeddings
		}
		params := vecmath.TrainQuantParamsOver(mats)
		refit := *next
		refit.shards = make([]*Shard, len(next.shards))
		for s, sh := range next.shards {
			q, err := vecmath.QuantizeMatrix(sh.Embeddings, params)
			if err != nil {
				// A live shard's matrix and freshly trained params always agree.
				panic(fmt.Sprintf("shard: requantizing shard %d: %v", s, err))
			}
			resh := *sh
			resh.Quant = q
			refit.shards[s] = &resh
		}
		return &refit, nil
	})
	return added
}
