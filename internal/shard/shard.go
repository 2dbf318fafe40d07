// Package shard partitions a built TASTI index into record-range shards and
// serves every query through a scatter-gather layer that is bitwise
// indistinguishable from the unsharded index.
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
// Every scatter-gather path produces output bitwise identical to the
// unsharded index, for any shard count and any worker count:
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
//     exactly as one global table would.
//
// What deliberately does NOT scatter: estimator-side reductions. Floating-
// point addition is not associative, so combining per-shard partial sums
// (e.g. the EBS control-variate proxy mean) would change bits. Query
// processors therefore consume the gathered, corpus-global proxy vector; the
// parallelism lives below them, in the propagation scatter.
//
// # Concurrency
//
// Like core.Index, an Index is safe for concurrent reads (Propagate*, Column,
// LimitCursor, LimitOrder, RepCount) but Crack/CrackAll, AppendRecords and
// ReplaceShard mutate state and must be serialized against all other use by
// the caller — cmd/tastiserve holds its query semaphore for exactly this.
// The proxy-column store (column.go) is the one piece of index state with
// its own lock.
package shard

import (
	"fmt"
	"maps"
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
// scatter-gather query surface. Shards sit behind atomic pointers so
// cmd/tastiserve can hot-swap a single shard at a request boundary without
// disturbing its peers.
type Index struct {
	shards []atomic.Pointer[Shard]
	total  int
	par    int

	// emb is the embedding model shared by every shard, carried over from the
	// source index (or restored from a snapshot's embedder frame) so the
	// sharded index can ingest new records (AppendRecords). Nil when the
	// source had none; immutable once serving starts.
	emb embed.Embedder

	// Stats carries the build metadata of the source index (labeler spend,
	// phase timings, degraded representatives) for /readyz and /index.
	Stats core.BuildStats

	// cols memoizes proxy columns for the current generation (column.go).
	// Every mutator that changes what a query can observe invalidates it.
	cols *columnStore

	tel       *telemetry.Registry
	mProp     []*telemetry.Counter // tasti_shard_propagate_total{shard="s"}
	gRecords  []*telemetry.Gauge   // tasti_shard_records{shard="s"}
	gReps     []*telemetry.Gauge   // tasti_shard_reps{shard="s"}
	gColBytes *telemetry.Gauge     // tasti_proxy_column_bytes
	gGen      *telemetry.Gauge     // tasti_index_generation
}

// Split partitions a built index into n contiguous-range shards, taking
// ownership of ix: the shards alias its embedding matrix and neighbor rows
// (zero-copy views with disjoint write ranges), so the source index must not
// be used afterwards. Parallelism and telemetry carry over from ix's config;
// each shard receives its own copy of the representative list and annotation
// map so later per-shard snapshots and reloads stay self-contained.
//
// Split(ix, 1) is the identity sharding: one shard holding the whole index,
// with every query path byte-for-byte equivalent to ix's own.
func Split(ix *core.Index, n int) (*Index, error) {
	total := ix.NumRecords()
	if n < 1 || n > total {
		return nil, fmt.Errorf("shard: cannot split %d records into %d shards", total, n)
	}
	cfg := ix.Config()
	x := &Index{
		shards: make([]atomic.Pointer[Shard], n),
		total:  total,
		par:    cfg.Parallelism,
		emb:    ix.Embedder,
		Stats:  ix.Stats,
		cols:   newColumnStore(columnBudgetBytes),
	}
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
		x.shards[s].Store(sh)
	}
	x.SetTelemetry(cfg.Telemetry)
	return x, nil
}

// NumShards returns the shard count.
func (x *Index) NumShards() int { return len(x.shards) }

// NumRecords returns the number of records across all shards.
func (x *Index) NumRecords() int { return x.total }

// K returns the min-k table depth (identical across shards).
func (x *Index) K() int { return x.shards[0].Load().Table.K }

// Shard returns the live shard at position i.
func (x *Index) Shard(i int) *Shard { return x.shards[i].Load() }

// Embedder returns the embedding model shared by the shards, or nil when the
// index was split from (or restored as) a model-less index.
func (x *Index) Embedder() embed.Embedder { return x.emb }

// SetEmbedder installs the embedding model AppendRecords uses. Like
// SetTelemetry it is a wiring call: make it before serving starts, or
// serialized against all other index use.
func (x *Index) SetEmbedder(e embed.Embedder) { x.emb = e }

// SetParallelism bounds the per-shard worker count used inside each shard's
// propagation and cracking scatter (p <= 0 uses all CPUs). Output is
// identical at every p.
func (x *Index) SetParallelism(p int) { x.par = p }

// Parallelism reports the per-shard worker bound.
func (x *Index) Parallelism() int { return x.par }

// SetTelemetry points the index at a metrics registry (nil disables) and
// pre-resolves the per-shard handles so the query path never formats a
// metric name. Safe to call before serving only: it is not synchronized
// against concurrent queries.
func (x *Index) SetTelemetry(reg *telemetry.Registry) {
	x.tel = reg
	n := len(x.shards)
	x.mProp = make([]*telemetry.Counter, n)
	x.gRecords = make([]*telemetry.Gauge, n)
	x.gReps = make([]*telemetry.Gauge, n)
	for s := 0; s < n; s++ {
		x.mProp[s] = reg.Counter(fmt.Sprintf(`tasti_shard_propagate_total{shard="%d"}`, s))
		x.gRecords[s] = reg.Gauge(fmt.Sprintf(`tasti_shard_records{shard="%d"}`, s))
		x.gReps[s] = reg.Gauge(fmt.Sprintf(`tasti_shard_reps{shard="%d"}`, s))
	}
	x.gColBytes = reg.Gauge("tasti_proxy_column_bytes")
	x.gGen = reg.Gauge("tasti_index_generation")
	x.cols.setTelemetry(reg)
	x.PublishMetrics()
}

// PublishMetrics refreshes the per-shard gauges (record and representative
// counts) from the live shards, and the proxy-column residency and index
// generation gauges from the column store. cmd/tastiserve calls it on
// /metrics scrapes and after reloads and cracks, so gauge staleness is
// bounded by scrape cadence.
func (x *Index) PublishMetrics() {
	if x.tel == nil {
		return
	}
	for s := range x.shards {
		sh := x.shards[s].Load()
		x.gRecords[s].Set(float64(sh.NumRecords()))
		x.gReps[s].Set(float64(len(sh.Table.Reps)))
	}
	cs := x.ColumnStats()
	x.gColBytes.Set(float64(cs.Bytes))
	x.gGen.Set(float64(cs.Generation))
}

// ReplaceShard atomically swaps in a replacement for shard i after checking
// it covers the identical record range — the one shard-shape invariant a
// hot reload must not bend — and advances the generation. The caller
// serializes it against queries and cracking (cmd/tastiserve holds its query
// semaphore).
func (x *Index) ReplaceShard(i int, sh *Shard) error {
	if i < 0 || i >= len(x.shards) {
		return fmt.Errorf("shard: shard %d out of range [0,%d)", i, len(x.shards))
	}
	cur := x.shards[i].Load()
	if sh.Lo != cur.Lo || sh.Hi != cur.Hi {
		return fmt.Errorf("shard: replacement covers [%d,%d), serving shard %d covers [%d,%d)",
			sh.Lo, sh.Hi, i, cur.Lo, cur.Hi)
	}
	if err := sh.Validate(); err != nil {
		return err
	}
	x.shards[i].Store(sh)
	x.cols.invalidate()
	x.PublishMetrics()
	return nil
}

// RepCount returns the number of distinct representatives across shards. In
// steady state every shard carries the identical list; after a rolling
// per-shard reload the union reports honestly across generations.
func (x *Index) RepCount() int {
	seen := make(map[int]struct{})
	for s := range x.shards {
		for _, rep := range x.shards[s].Load().Table.Reps {
			seen[rep] = struct{}{}
		}
	}
	return len(seen)
}

// scatter runs fn concurrently over the live shards — one goroutine per
// shard, each writing only its [Lo, Hi) slice of any gathered output — and
// returns the lowest-numbered shard's error, so the reported failure is
// deterministic even when several shards fail.
func (x *Index) scatter(fn func(s int, sh *Shard) error) error {
	return x.scatterSpan(nil, fn)
}

// scatterSpan is scatter with request tracing: when sp is non-nil, each
// shard's work runs inside a child span named shard/<s> carrying the shard's
// record count. Span bookkeeping happens outside fn's hot loops and no-ops
// entirely on a nil span, so unsampled requests pay one nil check per shard.
func (x *Index) scatterSpan(sp *telemetry.Span, fn func(s int, sh *Shard) error) error {
	run := func(s int, sh *Shard) error {
		c := sp.Child(fmt.Sprintf("shard/%d", s))
		c.SetAttr("records", sh.NumRecords())
		defer c.End()
		return fn(s, sh)
	}
	if sp == nil {
		run = fn
	}
	if len(x.shards) == 1 {
		return run(0, x.shards[0].Load())
	}
	errs := make([]error, len(x.shards))
	var wg sync.WaitGroup
	for s := range x.shards {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			errs[s] = run(s, x.shards[s].Load())
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
func (x *Index) observePropagate(metric string, start time.Time) {
	if x.tel == nil {
		return
	}
	x.tel.Counter(metric).Inc()
	x.tel.Histogram(metricPropagateSeconds, nil).Observe(time.Since(start).Seconds())
}

// Propagate computes the corpus-global proxy-score vector over each record's
// K nearest representatives, scattering across shards and gathering into one
// slice — bitwise identical to core.Index.Propagate on the unsharded index.
func (x *Index) Propagate(score core.ScoreFunc) ([]float64, error) {
	return x.PropagateKSpan(score, x.K(), nil)
}

// PropagateK is Propagate with an explicit neighbor count k <= K. Each shard
// evaluates its own representative annotations (shards agree on the
// representative set in steady state, and a rolling reload only ever scores
// a shard with its own table's generation) and runs the shared
// core.PropagateKRange kernel over its local rows into its disjoint slice of
// the output.
func (x *Index) PropagateK(score core.ScoreFunc, k int) ([]float64, error) {
	return x.PropagateKSpan(score, k, nil)
}

// PropagateKSpan is PropagateK threading a request span: the scatter opens
// one child span per shard under sp. A nil sp runs identically with no
// tracing.
func (x *Index) PropagateKSpan(score core.ScoreFunc, k int, sp *telemetry.Span) ([]float64, error) {
	if kMax := x.K(); k <= 0 || k > kMax {
		return nil, fmt.Errorf("shard: propagation k=%d outside [1,%d]", k, kMax)
	}
	defer x.observePropagate(metricPropagateWeighted, time.Now())
	out := make([]float64, x.total)
	err := x.scatterSpan(sp, func(s int, sh *Shard) error {
		rs := make([]float64, x.total)
		if err := sh.fillRepScores(rs, score); err != nil {
			return err
		}
		x.countPropagate(s)
		localN := sh.NumRecords()
		local := out[sh.Lo:sh.Hi]
		if parallel.Workers(x.par) == 1 {
			core.PropagateKRange(local, sh.Table.Neighbors, rs, k, 0, localN)
		} else {
			parallel.ForChunks(x.par, localN, func(_ int, sp parallel.Span) {
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
// that limit queries use — bitwise identical to core.Index.PropagateNearest.
func (x *Index) PropagateNearest(score core.ScoreFunc) (scores, dists []float64, err error) {
	return x.PropagateNearestSpan(score, nil)
}

// PropagateNearestSpan is PropagateNearest threading a request span (see
// PropagateKSpan).
func (x *Index) PropagateNearestSpan(score core.ScoreFunc, sp *telemetry.Span) (scores, dists []float64, err error) {
	defer x.observePropagate(metricPropagateNearest, time.Now())
	scores = make([]float64, x.total)
	dists = make([]float64, x.total)
	err = x.scatterSpan(sp, func(s int, sh *Shard) error {
		rs := make([]float64, x.total)
		if err := sh.fillRepScores(rs, score); err != nil {
			return err
		}
		x.countPropagate(s)
		localScores, localDists := scores[sh.Lo:sh.Hi], dists[sh.Lo:sh.Hi]
		parallel.ForChunks(x.par, sh.NumRecords(), func(_ int, sp parallel.Span) {
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

// countPropagate bumps the per-shard propagation counter.
func (x *Index) countPropagate(s int) {
	if x.mProp != nil {
		x.mProp[s].Inc()
	}
}

// LimitOrder returns every record ID in the limit-query scan order —
// descending proxy, ties by ascending tieDist (nil disables) then ascending
// ID: the full drain of LimitCursor, bitwise identical to limitq.Order over
// the full vectors. A scan that stops after a few matches should pop the
// cursor instead of draining it.
func (x *Index) LimitOrder(proxy, tieDist []float64) []int {
	return x.LimitCursor(proxy, tieDist, nil).Drain()
}

// LimitCursor heaps each shard's record range under limitq's comparator —
// concurrently, O(records) in total, one child span per shard under sp (nil
// disables tracing) — and returns the cursor that merges the heaps head by
// head, O(shards + log records) per ID taken. The comparator is a strict
// total order, so the cursor yields limitq.Order's permutation at any shard
// count. proxy (and tieDist, when non-nil) must have NumRecords entries.
func (x *Index) LimitCursor(proxy, tieDist []float64, sp *telemetry.Span) *limitq.Cursor {
	if len(proxy) != x.total {
		panic(fmt.Sprintf("shard: %d proxy scores for %d records", len(proxy), x.total))
	}
	heaps := make([]*limitq.Heap, len(x.shards))
	_ = x.scatterSpan(sp, func(s int, sh *Shard) error {
		heaps[s] = limitq.NewHeap(proxy, tieDist, sh.Lo, sh.Hi)
		return nil
	})
	return limitq.NewCursor(heaps...)
}

// Crack adds a target-labeler observation as a new representative on every
// shard: the owning shard supplies the new representative's embedding row,
// then each shard records the annotation and updates its own table rows —
// the same per-record computation the unsharded Table.AddRepresentative
// runs, so the sharded tables stay bitwise identical to the global one.
// Cracking a record that is already annotated is a no-op, mirroring
// core.Index.Crack — it keeps the generation and the retained proxy columns;
// a crack that adds a representative advances the generation and drops
// them. Callers serialize Crack against all other index use.
func (x *Index) Crack(id int, ann dataset.Annotation) {
	if id < 0 || id >= x.total {
		panic(fmt.Sprintf("shard: crack id %d out of range [0,%d)", id, x.total))
	}
	owner := x.owner(id)
	if _, ok := owner.Annotations[id]; ok {
		return
	}
	repEmb := owner.Embeddings.Row(id - owner.Lo)
	var qstats cluster.QuantScanStats
	for s := range x.shards {
		sh := x.shards[s].Load()
		sh.Annotations[id] = ann
		if sh.Quant.Enabled() {
			qstats.Add(sh.Table.AddRepresentativeEmbQuant(sh.Embeddings, sh.Quant, id, repEmb, x.par))
		} else {
			sh.Table.AddRepresentativeEmb(sh.Embeddings, id, repEmb, x.par)
		}
	}
	x.cols.invalidate()
	core.PublishQuantStats(x.tel, qstats)
	x.PublishMetrics()
}

// CrackAll cracks a batch of observations in ascending ID order — the fixed
// order that makes batch cracking deterministic regardless of map iteration.
func (x *Index) CrackAll(anns map[int]dataset.Annotation) {
	ids := make([]int, 0, len(anns))
	for id := range anns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		x.Crack(id, anns[id])
	}
}

// Annotated reports whether record id is already a representative (has a
// cached annotation). Callers hold the usual read serialization.
func (x *Index) Annotated(id int) bool {
	if id < 0 || id >= x.total {
		return false
	}
	_, ok := x.owner(id).Annotations[id]
	return ok
}

// AnnotationOf returns record id's cached annotation, if it is a
// representative (cracked, or annotated at build). Callers hold the usual
// read serialization. The label store consults this before spending budget:
// an annotation the index already owns is free.
func (x *Index) AnnotationOf(id int) (dataset.Annotation, bool) {
	if id < 0 || id >= x.total {
		return nil, false
	}
	ann, ok := x.owner(id).Annotations[id]
	return ann, ok
}

// owner returns the live shard whose range contains id.
func (x *Index) owner(id int) *Shard {
	s := sort.Search(len(x.shards), func(s int) bool { return x.shards[s].Load().Hi > id })
	return x.shards[s].Load()
}
