// Package shard serves a built TASTI index: its Index is the one type that
// answers queries and takes writes — cracks, appends, reloads.
//
// # One record range
//
// A Version holds one record range: one embedding matrix, its one quantized
// plane, one min-k table (the representative list and every record's
// neighbor row) and one annotation map. Every query reads that range on the
// worker grid (Config.Parallelism, SetParallelism). Split(ix, n) also
// records a view count n, which /index and /admin/status report and the
// snapshot stores: Shard(s) is the view [s*total/n, (s+1)*total/n), computed
// on demand. No query path reads it.
//
// # Determinism contract
//
// Every query path produces the same bits at every worker count:
//
//   - Propagation (PropagateK, PropagateNearest) writes each record's score
//     from only that record's neighbor row and the shared representative
//     scores, so any partition of the records across workers computes the
//     same bits (core.PropagateK).
//   - Limit-query ordering (LimitCursor, LimitOrder) heaps one contiguous
//     range per worker and merges the heaps head by head under the one
//     strict total order limitq scans by; a strict total order has exactly
//     one sorted permutation, so the merge equals the global order.
//   - Cracking (Crack, CrackAll) updates each record's neighbor row from only
//     that row, the record's own embedding, and the new representative's
//     embedding, so the table equals the one a one-pass build over the final
//     representative list computes.
//
// What deliberately does NOT split: estimator-side reductions. Floating-
// point addition is not associative, so combining per-worker partial sums
// (e.g. the EBS control-variate proxy mean) would change bits. Query
// processors therefore consume the whole proxy vector; the parallelism lives
// below them, in propagation.
//
// # Concurrency
//
// An Index publishes one immutable Version — record range, generation, and
// that generation's proxy-column store — through one atomic pointer.
// Readers take no lock: Pin loads the published version, and every read on
// it (Propagate*, Column, LimitCursor, AnnotationOf, RepCount, Save, Clone)
// sees exactly that state for as long as the caller holds it, whatever is
// published meanwhile. The Index's own read methods are one-shot
// conveniences that pin per call; a request that makes several reads pins
// once and reads the Version, so they all describe one state.
//
// Writers — Crack/CrackAll, AppendRecords, Requantize, Replace and the Set*
// wiring calls — are serialized among themselves only, by one mutex readers
// never touch. Each builds the next version copy-on-write from the published
// one and publishes it: nothing reachable from a published Version is written
// again. A crack batch clones the representative list, the annotation map and
// the Neighbors outer slice once, and gives every neighbor list it changes a
// fresh row (cluster.Table); appending extends the matrix, plane and table
// past the lengths older versions hold, where their readers never look. A
// superseded version is garbage once the last request that pinned it
// returns.
package shard

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/parallel"
	"repro/internal/query/limitq"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// Shard is a read-only view of records [Lo, Hi) of one version. Its Table
// rows and embedding matrix are indexed locally (record id - Lo) while
// Table.Reps, the neighbor entries' Rep fields, and the Annotations keys
// stay corpus-global. Every field aliases the version's one range, one
// representative list and one annotation map.
type Shard struct {
	// Lo and Hi bound the viewed record IDs: [Lo, Hi).
	Lo, Hi int
	// Embeddings holds rows Lo..Hi-1 of the corpus matrix, locally indexed.
	Embeddings vecmath.Matrix
	// Quant is the same row range of the version's quantized scan plane.
	Quant vecmath.QuantMatrix
	// Table is the min-k table over the viewed rows: Neighbors[i] describes
	// record Lo+i, naming corpus-global representative IDs.
	Table *cluster.Table
	// Annotations caches target-labeler outputs for every representative,
	// keyed by corpus-global record ID: the version's one map, read-only.
	Annotations map[int]dataset.Annotation
}

// NumRecords returns the number of records the shard views.
func (sh *Shard) NumRecords() int { return sh.Hi - sh.Lo }

// Index is a served TASTI index. It is a handle on a sequence of immutable
// Versions (see the package comment's concurrency section): reads pin the
// published one, writers publish its successor.
type Index struct {
	cur atomic.Pointer[Version]
	// writer serializes mutators among themselves; readers never take it.
	writer sync.Mutex
}

// Version is one immutable state of an index: what every query that pinned
// it sees, end to end. Its matrix, plane, table and annotation map are never
// written after publication; the proxy-column store is the one part that
// still changes (it memoizes reads of this very state) and locks itself.
type Version struct {
	// Stats carries the build metadata of the source index (labeler spend,
	// phase timings, degraded representatives) for /readyz and /index.
	Stats core.BuildStats

	w *wiring
	// emb, quant and table cover every record, one row each; table.Reps is
	// the representative list and anns their annotations.
	emb   vecmath.Matrix
	quant vecmath.QuantMatrix
	table *cluster.Table
	anns  map[int]dataset.Annotation
	// n is the view count Shard cuts the range by; no query reads it.
	n int
	// gen counts the state-changing mutations applied since the index was
	// split, loaded or cloned (ColumnStats.Generation).
	gen uint64
	// cols memoizes proxy columns of this generation (column.go). A successor
	// that changes what a query can observe starts with an empty store.
	cols *columnStore
}

// wiring is what every version of an index shares and no query result
// depends on: the worker bound, the embedding model appends use, and the
// telemetry handles, resolved once so no path formats a metric name. It is
// immutable; the Set* calls publish a version carrying a new one.
type wiring struct {
	par int
	// emb is the embedding model, carried over from the source index (or
	// restored from a snapshot's embedder frame) so the index can ingest new
	// records (AppendRecords). Nil when the source had none.
	emb embed.Embedder

	tel         *telemetry.Registry
	gReps       *telemetry.Gauge     // tasti_index_reps
	gColBytes   *telemetry.Gauge     // tasti_proxy_column_bytes
	gGen        *telemetry.Gauge     // tasti_index_generation
	hWriterWait *telemetry.Histogram // tasti_index_writer_wait_seconds
	hPropagate  *telemetry.Histogram // tasti_propagate_seconds

	// mColHit and mColMiss are indexed by ColumnKind.
	mColHit, mColMiss         [2]*telemetry.Counter
	mColInvalidate, mColEvict *telemetry.Counter
}

// resolved returns a copy of w with its handles resolved against w.tel
// (nil-safe handles on a nil registry).
func (w wiring) resolved() *wiring {
	reg := w.tel
	w.gReps = reg.Gauge("tasti_index_reps")
	w.gColBytes = reg.Gauge("tasti_proxy_column_bytes")
	w.gGen = reg.Gauge("tasti_index_generation")
	w.hWriterWait = reg.Histogram("tasti_index_writer_wait_seconds", nil)
	w.hPropagate = reg.Histogram("tasti_propagate_seconds", nil)
	for kind, name := range [2]string{ColumnWeighted: "weighted", ColumnNearest: "nearest"} {
		w.mColHit[kind] = reg.Counter(`tasti_proxy_column_requests_total{result="hit",kind="` + name + `"}`)
		w.mColMiss[kind] = reg.Counter(`tasti_proxy_column_requests_total{result="miss",kind="` + name + `"}`)
	}
	w.mColInvalidate = reg.Counter("tasti_proxy_column_invalidations_total")
	w.mColEvict = reg.Counter("tasti_proxy_column_evictions_total")
	return &w
}

// newIndex returns an index whose first version is v at generation 0, under
// w with nothing retained.
func newIndex(w wiring, v *Version) *Index {
	x := &Index{}
	v.w = w.resolved()
	v.cols = newColumnStore(columnBudgetBytes, v.w)
	x.cur.Store(v)
	return x
}

// Split hands a built index to the serving layer with n shard views,
// taking ownership of ix: the index aliases its embedding matrix,
// quantized plane, table and annotation map, so the source index must not be
// used afterwards. A source without a plane (a hand-built core.Index) gets
// one trained over its embeddings here, so every version carries one.
// Parallelism and telemetry carry over from ix's config.
//
// The view count changes no query path: every n serves the bits ix's own
// propagation computes.
func Split(ix *core.Index, n int) (*Index, error) {
	total := ix.NumRecords()
	if n < 1 || n > total {
		return nil, fmt.Errorf("shard: cannot split %d records into %d shards", total, n)
	}
	quant := ix.Quant
	if !quant.Enabled() {
		var err error
		if quant, err = vecmath.QuantizeMatrix(ix.Embeddings, vecmath.TrainQuantParams(ix.Embeddings)); err != nil {
			return nil, fmt.Errorf("shard: quantizing embeddings: %w", err)
		}
	}
	cfg := ix.Config()
	x := newIndex(wiring{par: cfg.Parallelism, emb: ix.Embedder, tel: cfg.Telemetry}, &Version{
		Stats: ix.Stats, emb: ix.Embeddings, quant: quant, table: ix.Table, anns: ix.Annotations, n: n})
	x.PublishMetrics()
	return x, nil
}

// Pin returns the published version: one atomic load, no lock. Everything
// read from the result describes one state of the index, however long the
// caller holds it and whatever writers publish meanwhile.
func (x *Index) Pin() *Version { return x.cur.Load() }

// The Index's read methods pin per call — each is the Version method of the
// same name on whatever is published at that instant.

func (x *Index) NumShards() int           { return x.Pin().NumShards() }
func (x *Index) NumRecords() int          { return x.Pin().NumRecords() }
func (x *Index) K() int                   { return x.Pin().K() }
func (x *Index) Shard(i int) *Shard       { return x.Pin().Shard(i) }
func (x *Index) RepCount() int            { return x.Pin().RepCount() }
func (x *Index) Annotated(id int) bool    { return x.Pin().Annotated(id) }
func (x *Index) ColumnStats() ColumnStats { return x.Pin().ColumnStats() }
func (x *Index) Save(w io.Writer) error   { return x.Pin().Save(w) }
func (x *Index) Clone() *Index            { return x.Pin().Clone() }
func (x *Index) Embedder() embed.Embedder { return x.Pin().w.emb }
func (x *Index) LimitOrder(proxy, tieDist []float64) []int {
	return x.Pin().LimitOrder(proxy, tieDist)
}
func (x *Index) AnnotationOf(id int) (dataset.Annotation, bool) { return x.Pin().AnnotationOf(id) }
func (x *Index) Propagate(score core.ScoreFunc) ([]float64, error) {
	return x.Pin().Propagate(score)
}
func (x *Index) PropagateNearest(score core.ScoreFunc) (scores, dists []float64, err error) {
	return x.Pin().PropagateNearest(score)
}
func (x *Index) Column(sc Scorer, kind ColumnKind) (*Column, bool, error) {
	return x.Pin().Column(sc, kind)
}

// NumShards returns the view count.
func (v *Version) NumShards() int { return v.n }

// NumRecords returns the number of records.
func (v *Version) NumRecords() int { return len(v.table.Neighbors) }

// K returns the min-k table depth.
func (v *Version) K() int { return v.table.K }

// span returns the record range [lo, hi) of shard s.
func (v *Version) span(s int) (lo, hi int) {
	total := v.NumRecords()
	return s * total / v.n, (s + 1) * total / v.n
}

// Shard returns the view of shard i's records. It aliases the version's
// state, which every reader shares: read-only.
func (v *Version) Shard(i int) *Shard {
	lo, hi := v.span(i)
	return &Shard{
		Lo:         lo,
		Hi:         hi,
		Embeddings: v.emb.RowRange(lo, hi),
		Quant:      v.quant.RowRange(lo, hi),
		Table: &cluster.Table{
			K:         v.table.K,
			Reps:      v.table.Reps,
			Neighbors: v.table.Neighbors[lo:hi:hi],
		},
		Annotations: v.anns,
	}
}

// write runs one mutation: it waits for the writer lock — the only wait a
// writer has, observed into tasti_index_writer_wait_seconds — builds the
// successor of the published version with fn, and publishes it. fn returns
// nil to keep the published version. Readers are never blocked: they keep
// loading the old pointer until the store.
func (x *Index) write(fn func(cur *Version) (*Version, error)) error {
	start := time.Now()
	x.writer.Lock()
	defer x.writer.Unlock()
	cur := x.cur.Load()
	cur.w.hWriterWait.Observe(time.Since(start).Seconds())
	next, err := fn(cur)
	if err != nil || next == nil {
		return err
	}
	x.cur.Store(next)
	next.publishMetrics()
	return nil
}

// successor returns a copy of v for the caller to apply gens state-changing
// mutations to: a new generation with nothing retained. Dropping a non-empty
// column store counts as one invalidation.
func (v *Version) successor(gens uint64) *Version {
	if v.cols.len() > 0 {
		v.w.mColInvalidate.Inc()
	}
	next := *v
	next.gen += gens
	next.cols = newColumnStore(columnBudgetBytes, v.w)
	return &next
}

// rewire publishes the current state under changed wiring. The retained
// columns go with the old handles; the generation stays.
func (x *Index) rewire(set func(w *wiring)) {
	_ = x.write(func(cur *Version) (*Version, error) {
		w := *cur.w
		set(&w)
		next := *cur
		next.w = w.resolved()
		next.cols = newColumnStore(columnBudgetBytes, next.w)
		return &next, nil
	})
}

// SetParallelism bounds the worker count of propagation, limit-heap builds,
// appends and cracking (p <= 0 uses all CPUs). Output is identical at every
// p.
func (x *Index) SetParallelism(p int) { x.rewire(func(w *wiring) { w.par = p }) }

// SetTelemetry points the index at a metrics registry (nil disables) and
// pre-resolves its handles so the query path never formats a metric name.
func (x *Index) SetTelemetry(reg *telemetry.Registry) { x.rewire(func(w *wiring) { w.tel = reg }) }

// PublishMetrics refreshes the representative count, the proxy-column
// residency and the index generation from the published version. Every
// writer does so as it publishes; cmd/tastiserve also calls it on /metrics
// scrapes, which catches the residency changes reads make.
func (x *Index) PublishMetrics() { x.Pin().publishMetrics() }

func (v *Version) publishMetrics() {
	if v.w.tel == nil {
		return
	}
	v.w.gReps.Set(float64(v.RepCount()))
	cs := v.ColumnStats()
	v.w.gColBytes.Set(float64(cs.Bytes))
	v.w.gGen.Set(float64(cs.Generation))
}

// Replace replaces the whole index state with another index's — a snapshot
// loaded for a hot reload — as one more write: next's published version goes
// out under this index's wiring with its own generation count and an empty
// column store. Replace takes ownership of next's state.
func (x *Index) Replace(next *Index) {
	_ = x.write(func(cur *Version) (*Version, error) {
		nv := *next.Pin()
		nv.w = cur.w
		nv.cols = newColumnStore(columnBudgetBytes, cur.w)
		return &nv, nil
	})
}

// RepCount returns the number of representatives.
func (v *Version) RepCount() int { return len(v.table.Reps) }

// Propagate computes the proxy-score vector over each record's K nearest
// representatives — bitwise what core.Index.Propagate computes over the same
// table.
func (v *Version) Propagate(score core.ScoreFunc) ([]float64, error) {
	return v.PropagateK(score, v.K())
}

// PropagateK is Propagate over k <= K neighbors: core.PropagateK on the
// version's table, on the index's workers.
func (v *Version) PropagateK(score core.ScoreFunc, k int) ([]float64, error) {
	return core.PropagateK(v.table, v.anns, score, k, v.w.par)
}

// PropagateNearest gives each record its nearest representative's exact
// score and the distance to it — the k=1 scoring with distance tie-breaking
// that limit queries use (core.PropagateNearest).
func (v *Version) PropagateNearest(score core.ScoreFunc) (scores, dists []float64, err error) {
	return core.PropagateNearest(v.table, v.anns, score, v.w.par)
}

// LimitOrder returns every record ID in the limit-query scan order —
// descending proxy, ties by ascending tieDist (nil disables) then ascending
// ID: the full drain of LimitCursor, bitwise identical to limitq.Order over
// the full vectors. A scan that stops after a few matches should pop the
// cursor instead of draining it.
func (v *Version) LimitOrder(proxy, tieDist []float64) []int {
	return v.LimitCursor(proxy, tieDist).Drain()
}

// LimitCursor heaps one contiguous record range per worker under limitq's
// comparator, concurrently and O(records) in total, and returns the cursor
// that merges the heaps head by head. The comparator is a strict total
// order, so the cursor yields limitq.Order's permutation at any worker
// count. proxy (and tieDist, when non-nil) must have NumRecords entries.
func (v *Version) LimitCursor(proxy, tieDist []float64) *limitq.Cursor {
	if total := v.NumRecords(); len(proxy) != total {
		panic(fmt.Sprintf("shard: %d proxy scores for %d records", len(proxy), total))
	}
	return limitq.NewCursor(proxy, tieDist, parallel.Workers(v.w.par))
}

// Crack adds a target-labeler observation as a new representative: CrackAll
// of one record.
func (x *Index) Crack(id int, ann dataset.Annotation) {
	x.CrackAll(map[int]dataset.Annotation{id: ann})
}

// CrackAll adds a batch of target-labeler observations as new
// representatives, in ascending ID order — the fixed order that makes batch
// cracking deterministic regardless of map iteration — and publishes the
// result as one version. Each record joins the representative list and the
// annotation map, and every record's neighbor row is updated from its own
// embedding and the new representative's — the per-record computation
// Table.AddRepresentativeEmb runs, so the table stays bitwise identical to
// a one-pass build over the final list. Records that are already annotated
// are skipped; a batch of nothing else keeps the published version, its
// generation and its proxy columns. Each representative added advances the
// generation by one.
// CrackAll returns how many representatives the batch added to the index:
// what RepCount grew by, with no other write in between.
func (x *Index) CrackAll(anns map[int]dataset.Annotation) (added int) {
	ids := make([]int, 0, len(anns))
	for id := range anns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return x.CrackInOrder(ids, anns)
}

// CrackInOrder is CrackAll in the order the caller gives: the distinct records
// ids name are added as representatives first to last — the order decides
// ties between equidistant representatives — and published as one version,
// for one copy-on-write. It is what a sequence of Crack calls leaves, at the
// copying cost of one.
func (x *Index) CrackInOrder(ids []int, anns map[int]dataset.Annotation) (added int) {
	_ = x.write(func(cur *Version) (next *Version, _ error) {
		next, added = cur.cracked(ids, anns)
		return next, nil
	})
	return added
}

// cracked builds v's successor with the not-yet-annotated records of ids
// added as representatives in that order, or returns nil when there are none;
// added counts them. Copy-on-write: the successor gets one fresh
// representative list, annotation map and Neighbors outer slice;
// AddRepresentativeRows replaces — never rewrites — the rows it changes, so v
// keeps propagating the bits it always did.
func (v *Version) cracked(ids []int, anns map[int]dataset.Annotation) (next *Version, added int) {
	total := v.NumRecords()
	for _, id := range ids {
		if id < 0 || id >= total {
			panic(fmt.Sprintf("shard: crack id %d out of range [0,%d)", id, total))
		}
	}
	if !slices.ContainsFunc(ids, func(id int) bool { return !v.Annotated(id) }) {
		return nil, 0
	}
	// The copies are the batch's fixed cost, whatever its size: one list of
	// representatives, one map of annotations, and O(records) row headers.
	table := &cluster.Table{K: v.table.K, Reps: slices.Clone(v.table.Reps), Neighbors: slices.Clone(v.table.Neighbors)}
	repAnns := maps.Clone(v.anns)
	var qstats cluster.QuantScanStats
	for _, id := range ids {
		if _, ok := repAnns[id]; ok {
			continue
		}
		table.Reps = append(table.Reps, id)
		repAnns[id] = anns[id]
		qstats.Add(table.AddRepresentativeRows(v.emb, v.quant, id, v.emb.Row(id), v.w.par))
	}
	core.PublishQuantStats(v.w.tel, qstats)
	added = len(table.Reps) - v.RepCount()
	next = v.successor(uint64(added))
	next.table, next.anns = table, repAnns
	return next, added
}

// Annotated reports whether record id is already a representative (has a
// cached annotation).
func (v *Version) Annotated(id int) bool {
	_, ok := v.anns[id]
	return ok
}

// AnnotationOf returns record id's cached annotation, if it is a
// representative (cracked, or annotated at build). The label store consults
// this before spending budget: an annotation the index already owns is free.
func (v *Version) AnnotationOf(id int) (dataset.Annotation, bool) {
	ann, ok := v.anns[id]
	return ann, ok
}
