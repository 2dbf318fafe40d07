package shard

import (
	"fmt"
	"maps"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/vecmath"
)

// Clone returns a deep copy of the index: every shard's embedding matrix,
// neighbor rows, representative list, and annotation map are freshly
// allocated, so cracking or appending to the clone never disturbs the
// original (and vice versa). The embedding model is shared — it is immutable
// once serving starts — while the proxy-column store starts empty at
// generation 0 and telemetry wiring is NOT carried over; call
// SetTelemetry on whichever copy ends up serving. The drift-triggered online
// refresh builds on exactly this: clone under the query lock, re-crack the
// clone off the lock, swap it back in.
//
// Clone reads every shard's full state, so callers serialize it against
// mutation (Crack, AppendRecords, ReplaceShard) like any other whole-index
// read.
func (x *Index) Clone() *Index {
	c := &Index{
		shards: make([]atomic.Pointer[Shard], len(x.shards)),
		total:  x.total,
		par:    x.par,
		emb:    x.emb,
		Stats:  x.Stats,
		cols:   newColumnStore(columnBudgetBytes),
	}
	for s := range x.shards {
		sh := x.shards[s].Load()
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
		c.shards[s].Store(&Shard{
			Lo:         sh.Lo,
			Hi:         sh.Hi,
			Embeddings: m,
			Quant:      sh.Quant.Clone(),
			Table: &cluster.Table{
				K:         sh.Table.K,
				Reps:      append([]int(nil), sh.Table.Reps...),
				Neighbors: nbrs,
			},
			Annotations: maps.Clone(sh.Annotations),
		})
	}
	return c
}

// Requantize retrains the quantized scan plane's parameters over the index's
// current embedding rows and re-codes every shard under them. A no-op when
// the index was built without quantization.
//
// Appends after build quantize under the build-time parameters; rows outside
// the trained range widen the plane's decode-error bound, which keeps scans
// correct but prunes less. The drift refresher calls Requantize on its clone
// (off the query lock) so a drifted corpus gets a freshly fitted grid — a
// pure pruning improvement with zero effect on any result, since every scan
// reranks bound survivors against the unchanged float rows.
//
// Shards are replaced copy-on-write, but Requantize reads and mutates index
// state and must be serialized against other mutation like Crack. Because no
// result moves, it keeps the generation and the retained proxy columns.
func (x *Index) Requantize() {
	if !x.shards[0].Load().Quant.Enabled() {
		return
	}
	mats := make([]vecmath.Matrix, len(x.shards))
	olds := make([]*Shard, len(x.shards))
	for s := range x.shards {
		olds[s] = x.shards[s].Load()
		mats[s] = olds[s].Embeddings
	}
	params := vecmath.TrainQuantParamsOver(mats)
	for s, sh := range olds {
		q, err := vecmath.QuantizeMatrix(sh.Embeddings, params)
		if err != nil {
			// A live shard's matrix and freshly trained params always agree.
			panic(fmt.Sprintf("shard: requantizing shard %d: %v", s, err))
		}
		next := *sh
		next.Quant = q
		x.shards[s].Store(&next)
	}
}
