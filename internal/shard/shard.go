// Package shard serves a built TASTI index: its Index is the one type that
// answers queries and takes writes — cracks, appends, reloads. Split
// partitions a core.Index into record-range shards, and every query runs
// through a scatter-gather layer that is bitwise indistinguishable from one
// shard holding the whole corpus.
//
// # Partitioning
//
// Split carves a *core.Index into n shards by contiguous record-ID range:
// shard s owns [s*total/n, (s+1)*total/n). Each shard is self-contained — it
// holds a zero-copy row-range view of the embedding matrix, its own min-k
// table (shard-local neighbor rows naming corpus-global representative IDs),
// and its own annotation cache — so a shard can be snapshotted, validated,
// and hot-swapped independently of its peers (see persist.go and
// cmd/tastiserve's per-shard reload).
//
// # Determinism contract
//
// Every scatter-gather path produces output bitwise identical to one shard
// holding the whole corpus, for any shard count and any worker count:
//
//   - Propagation (PropagateK, PropagateNearest) writes each record's score
//     from only that record's neighbor row and the shared representative
//     scores, so any partition of the record space — across shards or across
//     workers within a shard — computes the same bits (core.PropagateKRange).
//   - Limit-query ordering (LimitCursor, LimitOrder) heaps each shard's range
//     and merges the heaps head by head under the one strict total order
//     limitq scans by; a strict total order has exactly one sorted
//     permutation, so the merge equals the global order.
//   - Cracking (Crack, CrackAll) updates each record's neighbor row from only
//     that row, the record's own embedding, and the new representative's
//     embedding — supplied by the owning shard — so per-shard tables evolve
//     exactly as one global table would, and equal the table a one-pass
//     build over the final representative list computes.
//
// What deliberately does NOT scatter: estimator-side reductions. Floating-
// point addition is not associative, so combining per-shard partial sums
// (e.g. the EBS control-variate proxy mean) would change bits. Query
// processors therefore consume the gathered, corpus-global proxy vector; the
// parallelism lives below them, in the propagation scatter.
//
// # Concurrency
//
// An Index publishes one immutable Version — shard list, record count,
// generation, and that generation's proxy-column store — through one atomic
// pointer. Readers take no lock: Pin loads the published version, and every
// read on it (Propagate*, Column, LimitCursor, AnnotationOf, RepCount, Save,
// Clone) sees exactly that state for as long as the caller holds it, whatever
// is published meanwhile. The Index's own read methods are one-shot
// conveniences that pin per call; a request that makes several reads pins
// once and reads the Version, so they all describe one state.
//
// Writers — Crack/CrackAll, AppendRecords, ReplaceShard, Requantize, Replace
// and the Set* wiring calls — are serialized among themselves only, by one
// mutex readers never touch. Each builds the next version copy-on-write from
// the published one and publishes it: nothing reachable from a published
// Version is written again. Cracking clones each shard's Neighbors outer
// slice, representative list and Annotations map and gives every neighbor
// list it changes a fresh row (cluster.Table); appending
// extends the last shard's matrix and table past the lengths older versions
// hold, where their readers never look. A superseded version is garbage once
// the last request that pinned it returns.
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

// Pre-built metric names shared with core's propagation observers, plus the
// per-shard families documented in docs/OBSERVABILITY.md. Per-shard handles
// are resolved once in SetTelemetry so the query path never formats a name.
const (
	metricPropagateWeighted = `tasti_propagate_total{kind="weighted"}`
	metricPropagateNearest  = `tasti_propagate_total{kind="nearest"}`
	metricPropagateSeconds  = "tasti_propagate_seconds"
)

// Shard is one contiguous record-range slice of the index. Its Table rows
// and embedding matrix are indexed locally (record id - Lo) while
// Table.Reps, the neighbor entries' Rep fields, and the Annotations keys
// stay corpus-global — the invariant that lets shard-local propagation reuse
// the exact core kernels.
type Shard struct {
	// Lo and Hi bound the owned record IDs: [Lo, Hi).
	Lo, Hi int
	// Embeddings holds rows Lo..Hi-1 of the corpus matrix, locally indexed.
	Embeddings vecmath.Matrix
	// Quant is the shard's view of the quantized scan plane — the same row
	// range as Embeddings, sharing the corpus plane's codes and trained
	// params. The zero value (source index built without Config.Quantize)
	// disables quantized scans and the shard cracks the float rows directly.
	Quant vecmath.QuantMatrix
	// Table is the shard-local min-k table: Neighbors[i] describes record
	// Lo+i, naming corpus-global representative IDs.
	Table *cluster.Table
	// Annotations caches target-labeler outputs for every representative,
	// keyed by corpus-global record ID. Each shard owns its map so a shard
	// snapshot is self-contained.
	Annotations map[int]dataset.Annotation
}

// NumRecords returns the number of records the shard owns.
func (sh *Shard) NumRecords() int { return sh.Hi - sh.Lo }

// Validate checks the shard's internal invariants: range shape, matrix/table
// row agreement, and the table's own invariants.
func (sh *Shard) Validate() error {
	if sh.Lo < 0 || sh.Hi < sh.Lo {
		return fmt.Errorf("shard: invalid range [%d,%d)", sh.Lo, sh.Hi)
	}
	if n := sh.NumRecords(); sh.Embeddings.Rows() != n || len(sh.Table.Neighbors) != n {
		return fmt.Errorf("shard: range [%d,%d) has %d embedding rows and %d neighbor lists",
			sh.Lo, sh.Hi, sh.Embeddings.Rows(), len(sh.Table.Neighbors))
	}
	if sh.Quant.Enabled() &&
		(sh.Quant.Rows() != sh.NumRecords() || sh.Quant.Dim() != sh.Embeddings.Dim()) {
		return fmt.Errorf("shard: range [%d,%d) has a %dx%d quantized plane over %dx%d embeddings",
			sh.Lo, sh.Hi, sh.Quant.Rows(), sh.Quant.Dim(), sh.Embeddings.Rows(), sh.Embeddings.Dim())
	}
	return sh.Table.Validate()
}

// fillRepScores evaluates score on this shard's representative annotations
// into rs, a dense slice indexed by corpus-global record ID (len >= total).
// Entries for non-representatives are stale garbage no read path touches.
func (sh *Shard) fillRepScores(rs []float64, score core.ScoreFunc) error {
	for _, rep := range sh.Table.Reps {
		ann, ok := sh.Annotations[rep]
		if !ok {
			return fmt.Errorf("%w: representative %d", core.ErrNoAnnotation, rep)
		}
		rs[rep] = score(ann)
	}
	return nil
}

// Index is a sharded TASTI index: N self-contained shards behind one
// scatter-gather query surface. It is a handle on a sequence of immutable
// Versions (see the package comment's concurrency section): reads pin the
// published one, writers publish its successor.
type Index struct {
	cur atomic.Pointer[Version]
	// writer serializes mutators among themselves; readers never take it.
	writer sync.Mutex
}

// Version is one immutable state of a sharded index: what every query that
// pinned it sees, end to end. Its shards, their tables and annotation maps
// are never written after publication; the proxy-column store is the one
// part that still changes (it memoizes reads of this very state) and locks
// itself.
type Version struct {
	// Stats carries the build metadata of the source index (labeler spend,
	// phase timings, degraded representatives) for /readyz and /index.
	Stats core.BuildStats

	w      *wiring
	shards []*Shard
	total  int
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
	// emb is the embedding model shared by every shard, carried over from the
	// source index (or restored from a snapshot's embedder frame) so the
	// sharded index can ingest new records (AppendRecords). Nil when the
	// source had none.
	emb embed.Embedder

	tel         *telemetry.Registry
	mProp       []*telemetry.Counter // tasti_shard_propagate_total{shard="s"}
	gRecords    []*telemetry.Gauge   // tasti_shard_records{shard="s"}
	gReps       []*telemetry.Gauge   // tasti_shard_reps{shard="s"}
	gColBytes   *telemetry.Gauge     // tasti_proxy_column_bytes
	gGen        *telemetry.Gauge     // tasti_index_generation
	hWriterWait *telemetry.Histogram // tasti_index_writer_wait_seconds

	mColHit, mColMiss, mColInvalidate, mColEvict *telemetry.Counter
}

// resolved returns a copy of w with its handles resolved against w.tel for n
// shards (nil-safe handles on a nil registry).
func (w wiring) resolved(n int) *wiring {
	reg := w.tel
	w.mProp = make([]*telemetry.Counter, n)
	w.gRecords = make([]*telemetry.Gauge, n)
	w.gReps = make([]*telemetry.Gauge, n)
	for s := 0; s < n; s++ {
		w.mProp[s] = reg.Counter(fmt.Sprintf(`tasti_shard_propagate_total{shard="%d"}`, s))
		w.gRecords[s] = reg.Gauge(fmt.Sprintf(`tasti_shard_records{shard="%d"}`, s))
		w.gReps[s] = reg.Gauge(fmt.Sprintf(`tasti_shard_reps{shard="%d"}`, s))
	}
	w.gColBytes = reg.Gauge("tasti_proxy_column_bytes")
	w.gGen = reg.Gauge("tasti_index_generation")
	w.hWriterWait = reg.Histogram("tasti_index_writer_wait_seconds", nil)
	w.mColHit = reg.Counter(`tasti_proxy_column_requests_total{result="hit"}`)
	w.mColMiss = reg.Counter(`tasti_proxy_column_requests_total{result="miss"}`)
	w.mColInvalidate = reg.Counter("tasti_proxy_column_invalidations_total")
	w.mColEvict = reg.Counter("tasti_proxy_column_evictions_total")
	return &w
}

// newIndex returns an index whose first version is generation 0 of shards.
func newIndex(w wiring, stats core.BuildStats, shards []*Shard, total int) *Index {
	x := &Index{}
	rw := w.resolved(len(shards))
	x.cur.Store(&Version{Stats: stats, w: rw, shards: shards, total: total, cols: newColumnStore(columnBudgetBytes, rw)})
	return x
}

// Split partitions a built index into n contiguous-range shards, taking
// ownership of ix: the shards alias its embedding matrix and neighbor rows
// (zero-copy views), so the source index must not be used afterwards.
// Parallelism and telemetry carry over from ix's config; each shard receives
// its own copy of the representative list and annotation map so later
// per-shard snapshots and reloads stay self-contained.
//
// Split(ix, 1) is the identity sharding: one shard holding the whole index,
// with every query path byte-for-byte equivalent to ix's own.
func Split(ix *core.Index, n int) (*Index, error) {
	total := ix.NumRecords()
	if n < 1 || n > total {
		return nil, fmt.Errorf("shard: cannot split %d records into %d shards", total, n)
	}
	cfg := ix.Config()
	shards := make([]*Shard, n)
	for s := 0; s < n; s++ {
		lo, hi := s*total/n, (s+1)*total/n
		sh := &Shard{
			Lo:         lo,
			Hi:         hi,
			Embeddings: ix.Embeddings.RowRange(lo, hi),
			Table: &cluster.Table{
				K:         ix.Table.K,
				Reps:      append([]int(nil), ix.Table.Reps...),
				Neighbors: ix.Table.Neighbors[lo:hi:hi],
			},
			Annotations: maps.Clone(ix.Annotations),
		}
		if ix.Quant.Enabled() {
			// Zero-copy view of the corpus code plane, same range as the
			// float view above.
			sh.Quant = ix.Quant.RowRange(lo, hi)
		}
		shards[s] = sh
	}
	x := newIndex(wiring{par: cfg.Parallelism, emb: ix.Embedder, tel: cfg.Telemetry}, ix.Stats, shards, total)
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
func (x *Index) Column(sc Scorer, kind ColumnKind, sp *telemetry.Span) (*Column, bool, error) {
	return x.Pin().Column(sc, kind, sp)
}

// NumShards returns the shard count.
func (v *Version) NumShards() int { return len(v.shards) }

// NumRecords returns the number of records across all shards.
func (v *Version) NumRecords() int { return v.total }

// K returns the min-k table depth (identical across shards).
func (v *Version) K() int { return v.shards[0].Table.K }

// Shard returns the shard at position i. It is shared with every reader of
// the version: read-only.
func (v *Version) Shard(i int) *Shard { return v.shards[i] }

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

// successor returns the version that follows v after gens state-changing
// mutations left it with shards covering total records: a new generation
// with nothing retained. Dropping a non-empty column store counts as one
// invalidation.
func (v *Version) successor(shards []*Shard, total int, gens uint64) *Version {
	if v.cols.len() > 0 {
		v.w.mColInvalidate.Inc()
	}
	return &Version{Stats: v.Stats, w: v.w, shards: shards, total: total,
		gen: v.gen + gens, cols: newColumnStore(columnBudgetBytes, v.w)}
}

// rewire publishes the current state under changed wiring. The retained
// columns go with the old handles; the generation stays.
func (x *Index) rewire(set func(w *wiring)) {
	_ = x.write(func(cur *Version) (*Version, error) {
		w := *cur.w
		set(&w)
		next := *cur
		next.w = w.resolved(len(cur.shards))
		next.cols = newColumnStore(columnBudgetBytes, next.w)
		return &next, nil
	})
}

// SetEmbedder installs the embedding model AppendRecords uses.
func (x *Index) SetEmbedder(e embed.Embedder) { x.rewire(func(w *wiring) { w.emb = e }) }

// SetParallelism bounds the per-shard worker count used inside each shard's
// propagation and cracking scatter (p <= 0 uses all CPUs). Output is
// identical at every p.
func (x *Index) SetParallelism(p int) { x.rewire(func(w *wiring) { w.par = p }) }

// SetTelemetry points the index at a metrics registry (nil disables) and
// pre-resolves the per-shard handles so the query path never formats a
// metric name.
func (x *Index) SetTelemetry(reg *telemetry.Registry) { x.rewire(func(w *wiring) { w.tel = reg }) }

// PublishMetrics refreshes the per-shard gauges (record and representative
// counts), the proxy-column residency and the index generation from the
// published version. Every writer does so as it publishes; cmd/tastiserve
// also calls it on /metrics scrapes, which catches the residency changes
// reads make.
func (x *Index) PublishMetrics() { x.Pin().publishMetrics() }

func (v *Version) publishMetrics() {
	if v.w.tel == nil {
		return
	}
	for s, sh := range v.shards {
		v.w.gRecords[s].Set(float64(sh.NumRecords()))
		v.w.gReps[s].Set(float64(len(sh.Table.Reps)))
	}
	cs := v.ColumnStats()
	v.w.gColBytes.Set(float64(cs.Bytes))
	v.w.gGen.Set(float64(cs.Generation))
}

// ReplaceShard publishes a version with shard i replaced, after checking the
// replacement covers the identical record range — the one shard-shape
// invariant a hot reload must not bend — and advances the generation.
// Requests that pinned the previous version finish on the old shard.
func (x *Index) ReplaceShard(i int, sh *Shard) error {
	return x.write(func(cur *Version) (*Version, error) {
		if i < 0 || i >= len(cur.shards) {
			return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", i, len(cur.shards))
		}
		if old := cur.shards[i]; sh.Lo != old.Lo || sh.Hi != old.Hi {
			return nil, fmt.Errorf("shard: replacement covers [%d,%d), serving shard %d covers [%d,%d)",
				sh.Lo, sh.Hi, i, old.Lo, old.Hi)
		}
		if err := sh.Validate(); err != nil {
			return nil, err
		}
		shards := slices.Clone(cur.shards)
		shards[i] = sh
		return cur.successor(shards, cur.total, 1), nil
	})
}

// Replace replaces the whole index state with another index's — a snapshot
// loaded for a hot reload — as one more write: next's published version goes
// out under this index's wiring with its own generation count and an empty
// column store. Replace takes ownership of next's shards.
func (x *Index) Replace(next *Index) {
	_ = x.write(func(cur *Version) (*Version, error) {
		nv := next.Pin()
		w := cur.w
		if len(nv.shards) != len(cur.shards) {
			w = w.resolved(len(nv.shards))
		}
		return &Version{Stats: nv.Stats, w: w, shards: nv.shards, total: nv.total,
			gen: nv.gen, cols: newColumnStore(columnBudgetBytes, w)}, nil
	})
}

// RepCount returns the number of distinct representatives across shards. In
// steady state every shard carries the identical list; after a rolling
// per-shard reload the union reports honestly across generations.
func (v *Version) RepCount() int {
	seen := make(map[int]struct{})
	for _, sh := range v.shards {
		for _, rep := range sh.Table.Reps {
			seen[rep] = struct{}{}
		}
	}
	return len(seen)
}

// scatter runs fn concurrently over the shards — one goroutine per shard,
// each writing only its [Lo, Hi) slice of any gathered output — and returns
// the lowest-numbered shard's error, so the reported failure is deterministic
// even when several shards fail. When sp is non-nil, each shard's work runs
// inside a child span named shard/<s> carrying the shard's record count. Span
// bookkeeping happens outside fn's hot loops and no-ops entirely on a nil
// span, so unsampled requests pay one nil check per shard.
func (v *Version) scatter(sp *telemetry.Span, fn func(s int, sh *Shard) error) error {
	run := func(s int, sh *Shard) error {
		c := sp.Child(fmt.Sprintf("shard/%d", s))
		c.SetAttr("records", sh.NumRecords())
		defer c.End()
		return fn(s, sh)
	}
	if sp == nil {
		run = fn
	}
	if len(v.shards) == 1 {
		return run(0, v.shards[0])
	}
	errs := make([]error, len(v.shards))
	var wg sync.WaitGroup
	for s := range v.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = run(s, v.shards[s])
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// observePropagate mirrors core's propagation observability: one count and
// one latency observation per gather, nothing per record or per shard beyond
// the pre-resolved per-shard counters.
func (v *Version) observePropagate(metric string, start time.Time) {
	tel := v.w.tel
	if tel == nil {
		return
	}
	tel.Counter(metric).Inc()
	tel.Histogram(metricPropagateSeconds, nil).Observe(time.Since(start).Seconds())
}

// Propagate computes the corpus-global proxy-score vector over each record's
// K nearest representatives, scattering across shards and gathering into one
// slice — bitwise identical to one min-k table over the whole corpus, and to
// core.Index.Propagate on the unsharded index.
func (v *Version) Propagate(score core.ScoreFunc) ([]float64, error) {
	return v.PropagateKSpan(score, v.K(), nil)
}

// PropagateK is Propagate with an explicit neighbor count k <= K. Each shard
// evaluates its own representative annotations (shards agree on the
// representative set in steady state, and a rolling reload only ever scores
// a shard with its own table's generation) and runs the shared
// core.PropagateKRange kernel over its local rows into its disjoint slice of
// the output.
func (v *Version) PropagateK(score core.ScoreFunc, k int) ([]float64, error) {
	return v.PropagateKSpan(score, k, nil)
}

// PropagateKSpan is PropagateK threading a request span: the scatter opens
// one child span per shard under sp. A nil sp runs identically with no
// tracing.
func (v *Version) PropagateKSpan(score core.ScoreFunc, k int, sp *telemetry.Span) ([]float64, error) {
	if kMax := v.K(); k <= 0 || k > kMax {
		return nil, fmt.Errorf("shard: propagation k=%d outside [1,%d]", k, kMax)
	}
	defer v.observePropagate(metricPropagateWeighted, time.Now())
	par := v.w.par
	out := make([]float64, v.total)
	err := v.scatter(sp, func(s int, sh *Shard) error {
		rs := make([]float64, v.total)
		if err := sh.fillRepScores(rs, score); err != nil {
			return err
		}
		v.w.mProp[s].Inc()
		localN := sh.NumRecords()
		local := out[sh.Lo:sh.Hi]
		if parallel.Workers(par) == 1 {
			core.PropagateKRange(local, sh.Table.Neighbors, rs, k, 0, localN)
		} else {
			parallel.ForChunks(par, localN, func(_ int, sp parallel.Span) {
				core.PropagateKRange(local, sh.Table.Neighbors, rs, k, sp.Lo, sp.Hi)
			})
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// PropagateNearest gathers each record's nearest representative's exact
// score and the distance to it — the k=1 scoring with distance tie-breaking
// that limit queries use — bitwise identical at every shard count.
func (v *Version) PropagateNearest(score core.ScoreFunc) (scores, dists []float64, err error) {
	return v.PropagateNearestSpan(score, nil)
}

// PropagateNearestSpan is PropagateNearest threading a request span (see
// PropagateKSpan).
func (v *Version) PropagateNearestSpan(score core.ScoreFunc, sp *telemetry.Span) (scores, dists []float64, err error) {
	defer v.observePropagate(metricPropagateNearest, time.Now())
	scores = make([]float64, v.total)
	dists = make([]float64, v.total)
	err = v.scatter(sp, func(s int, sh *Shard) error {
		rs := make([]float64, v.total)
		if err := sh.fillRepScores(rs, score); err != nil {
			return err
		}
		v.w.mProp[s].Inc()
		localScores, localDists := scores[sh.Lo:sh.Hi], dists[sh.Lo:sh.Hi]
		parallel.ForChunks(v.w.par, sh.NumRecords(), func(_ int, sp parallel.Span) {
			for i := sp.Lo; i < sp.Hi; i++ {
				nb := sh.Table.Neighbors[i][0]
				localScores[i] = rs[nb.Rep]
				localDists[i] = nb.Dist
			}
		})
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	return scores, dists, nil
}

// LimitOrder returns every record ID in the limit-query scan order —
// descending proxy, ties by ascending tieDist (nil disables) then ascending
// ID: the full drain of LimitCursor, bitwise identical to limitq.Order over
// the full vectors. A scan that stops after a few matches should pop the
// cursor instead of draining it.
func (v *Version) LimitOrder(proxy, tieDist []float64) []int {
	return v.LimitCursor(proxy, tieDist, nil).Drain()
}

// LimitCursor heaps each shard's record range under limitq's comparator —
// concurrently, O(records) in total, one child span per shard under sp (nil
// disables tracing) — and returns the cursor that merges the heaps head by
// head, O(shards + log records) per ID taken. The comparator is a strict
// total order, so the cursor yields limitq.Order's permutation at any shard
// count. proxy (and tieDist, when non-nil) must have NumRecords entries.
func (v *Version) LimitCursor(proxy, tieDist []float64, sp *telemetry.Span) *limitq.Cursor {
	if len(proxy) != v.total {
		panic(fmt.Sprintf("shard: %d proxy scores for %d records", len(proxy), v.total))
	}
	heaps := make([]*limitq.Heap, len(v.shards))
	_ = v.scatter(sp, func(s int, sh *Shard) error {
		heaps[s] = limitq.NewHeap(proxy, tieDist, sh.Lo, sh.Hi)
		return nil
	})
	return limitq.NewCursor(heaps...)
}

// Crack adds a target-labeler observation as a new representative: CrackAll
// of one record.
func (x *Index) Crack(id int, ann dataset.Annotation) {
	x.CrackAll(map[int]dataset.Annotation{id: ann})
}

// CrackAll adds a batch of target-labeler observations as new
// representatives on every shard, in ascending ID order — the fixed order
// that makes batch cracking deterministic regardless of map iteration — and
// publishes the result as one version. For each record the owning shard
// supplies the embedding row, then each shard records the annotation and
// updates its own table rows — the same per-record computation the unsharded
// Table.AddRepresentativeEmb runs, so the sharded tables stay bitwise identical
// to the global one. Records that are already annotated are skipped; a batch
// of nothing else keeps the published version, its generation and its proxy
// columns. Each representative added advances the generation by one.
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
// added counts the records no shard's table had as a representative before —
// what the union RepCount reports grows by. Copy-on-write: each shard gets
// its own Table header, Neighbors outer slice, representative list and
// Annotations map, and AddRepresentativeEmb replaces — never rewrites — the
// rows it changes, so v keeps propagating the bits it always did.
func (v *Version) cracked(ids []int, anns map[int]dataset.Annotation) (next *Version, added int) {
	var fresh []int
	for _, id := range ids {
		if id < 0 || id >= v.total {
			panic(fmt.Sprintf("shard: crack id %d out of range [0,%d)", id, v.total))
		}
		if _, ok := v.owner(id).Annotations[id]; ok {
			continue
		}
		fresh = append(fresh, id)
		// Mid rolling reload a peer shard may already carry the record.
		if !slices.ContainsFunc(v.shards, func(sh *Shard) bool { return slices.Contains(sh.Table.Reps, id) }) {
			added++
		}
	}
	if len(fresh) == 0 {
		return nil, 0
	}
	// The copies are the batch's fixed cost: O(records) slice headers and
	// O(annotations) map entries per shard, whatever the batch size.
	shards := make([]*Shard, len(v.shards))
	for s, sh := range v.shards {
		next := *sh
		next.Table = &cluster.Table{
			K:         sh.Table.K,
			Reps:      slices.Clone(sh.Table.Reps),
			Neighbors: slices.Clone(sh.Table.Neighbors),
		}
		next.Annotations = maps.Clone(sh.Annotations)
		shards[s] = &next
	}
	var qstats cluster.QuantScanStats
	for _, id := range fresh {
		owner := v.owner(id) // embeddings are shared with the successor
		repEmb := owner.Embeddings.Row(id - owner.Lo)
		for _, sh := range shards {
			sh.Annotations[id] = anns[id]
			qstats.Add(sh.Table.AddRepresentativeEmb(sh.Embeddings, sh.Quant, id, repEmb, v.w.par))
		}
	}
	core.PublishQuantStats(v.w.tel, qstats)
	return v.successor(shards, v.total, uint64(len(fresh))), added
}

// Annotated reports whether record id is already a representative (has a
// cached annotation).
func (v *Version) Annotated(id int) bool {
	_, ok := v.AnnotationOf(id)
	return ok
}

// AnnotationOf returns record id's cached annotation, if it is a
// representative (cracked, or annotated at build). The label store consults
// this before spending budget: an annotation the index already owns is free.
func (v *Version) AnnotationOf(id int) (dataset.Annotation, bool) {
	if id < 0 || id >= v.total {
		return nil, false
	}
	ann, ok := v.owner(id).Annotations[id]
	return ann, ok
}

// owner returns the shard whose range contains id.
func (v *Version) owner(id int) *Shard {
	return v.shards[sort.Search(len(v.shards), func(s int) bool { return v.shards[s].Hi > id })]
}
