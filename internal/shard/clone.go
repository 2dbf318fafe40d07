package shard

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/vecmath"
)

// Clone returns a deep copy of the version as an index of its own: the
// embedding matrix, plane, neighbor rows, representative list and annotation
// map are freshly allocated, so cracking or appending to the clone shares no
// memory with the original (and vice versa). The embedding model is shared — it is immutable — while the clone
// starts at generation 0 with an empty proxy-column store and telemetry
// wiring is NOT carried over. The benchmarks reset their index state with it
// between rounds.
//
// Clone reads one immutable version, so it needs no serialization against
// anything.
func (v *Version) Clone() *Index {
	emb, err := vecmath.MatrixFromFlat(slices.Clone(v.emb.Data()), v.emb.Rows(), v.emb.Dim())
	if err != nil {
		// A live version's matrix always has a consistent shape.
		panic(fmt.Sprintf("shard: cloning the embeddings: %v", err))
	}
	nbrs := make([][]cluster.Neighbor, len(v.table.Neighbors))
	for i, row := range v.table.Neighbors {
		nbrs[i] = slices.Clone(row)
	}
	return newIndex(wiring{par: v.w.par, emb: v.w.emb}, &Version{Stats: v.Stats, emb: emb, quant: v.quant.Clone(),
		table: &cluster.Table{K: v.table.K, Reps: slices.Clone(v.table.Reps), Neighbors: nbrs},
		anns:  maps.Clone(v.anns), n: v.NumShards()})
}

// Requantize retrains the quantized scan plane's parameters over the index's
// current embedding rows and re-codes the plane under them.
//
// Appends after build quantize under the build-time parameters; rows outside
// the trained range widen the plane's decode-error bound, which keeps scans
// correct but prunes less. The drift refresher refits after its crack batch
// (CrackAndRequantize) so a drifted corpus gets a freshly fitted grid — a
// pure pruning improvement with zero effect on any result, since every scan
// reranks bound survivors against the unchanged float rows.
//
// A write like any other, except that no result moves: the version it
// publishes keeps its predecessor's generation and proxy columns. When the
// plane's decode-error bound has not widened since it was coded, the refit
// would buy no pruning, and Requantize publishes nothing.
func (x *Index) Requantize() { x.CrackAndRequantize(nil, nil) }

// CrackAndRequantize is CrackInOrder followed by Requantize, published as
// one version: the drift refresher's batch, which a reader sees whole or not
// at all.
func (x *Index) CrackAndRequantize(ids []int, anns map[int]dataset.Annotation) (added int) {
	_ = x.write(func(cur *Version) (*Version, error) {
		next, n := cur.cracked(ids, anns)
		added = n
		if next == nil {
			if !cur.quant.Widened() {
				return nil, nil
			}
			refit := *cur
			next = &refit
		}
		if next.quant.Widened() {
			q, err := vecmath.QuantizeMatrix(next.emb, vecmath.TrainQuantParams(next.emb))
			if err != nil {
				// A live matrix and freshly trained params always agree.
				panic(fmt.Sprintf("shard: requantizing: %v", err))
			}
			next.quant = q
		}
		return next, nil
	})
	return added
}
