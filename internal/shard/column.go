package shard

import (
	"container/list"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Proxy columns: the O(records) part of a query that depends on nothing but
// (index state, scoring function) — the propagated score vector, and its
// mean, SUPG sampling design or limit scan order derived from it alone —
// computed once per index generation and handed to every later request. What
// is left of a request is the part proportional to the labels it buys.
//
// Beside its proxy scores a column memoizes exact ones: Value(id) is
// score(annotation of id) for every record some request already obtained the
// label of. That number is a constant of (scoring function, record) — the
// label store is append-only and first-writer-wins, and a Scorer's name is its
// identity — so a sampler's draw on such a record is two array reads (proxy
// score, exact score) instead of a label lookup and a walk of the annotation.
//
// A generation is one state of the index as queries see it. Every mutator
// that changes a propagated score publishes a Version of a later generation,
// whose store starts empty: CrackAll for each representative it adds, and
// AppendRecords. A Crack of an already-annotated record
// changes nothing and keeps the version; Requantize, which re-codes the scan
// plane without moving any result, publishes a version sharing its
// predecessor's generation and store. Clone, Load and Split start at
// generation 0 with an empty store, and Replace adopts the incoming index's
// generation. A store therefore only ever describes the one state its version
// pins, and needs no invalidation: it becomes garbage with the version.

// ColumnKind selects the propagation a column holds.
type ColumnKind uint8

const (
	// ColumnWeighted is Propagate's output — the distance-weighted mean over
	// each record's K nearest representatives — serving aggregation directly
	// and SUPG selection through Design.
	ColumnWeighted ColumnKind = iota
	// ColumnNearest is PropagateNearest's output — each record's nearest
	// representative's exact score and the distance to it — serving limit
	// queries through Cursor.
	ColumnNearest
)

// Scorer is a scoring function together with the name that identifies it
// across requests. The name is the column key, so two Scorers with one name
// must score every annotation identically; the function of the first request
// in a generation is the one that runs.
type Scorer struct {
	Name  string
	Score core.ScoreFunc
}

// columnBudgetBytes bounds the column payload the store retains. Scorer
// names come from clients, so the bound is a safety property rather than a
// tunable: at 60k records a weighted column is charged 2.2 MB and a nearest
// one 2.4 MB, and the budget holds 31 or 27 of them.
const columnBudgetBytes = 64 << 20

// unknownValue is the one float64 bit pattern — a NaN payload no arithmetic
// produces — that Value cannot hold. A cell stores its value's bits XOR this
// pattern, so the zero cell of a fresh vector reads "not known yet" and a
// score whose bits equal the pattern is simply never memoized.
const unknownValue = 0x7ff8_7a57_1c01_0001

// Column is one scoring function's propagated scores over one index
// generation, plus the query structures derived from the scores alone and the
// exact scores requests have learnt so far. The slices are read-only —
// requests share them and must not write them — and the exact scores are
// written only through setValue.
type Column struct {
	// Kind is the propagation Scores came from.
	Kind ColumnKind
	// Generation is the index generation the column describes.
	Generation uint64
	// Scores is the corpus-global proxy vector: the very slice Propagate
	// (ColumnWeighted) or PropagateNearest (ColumnNearest) returned.
	Scores []float64
	// Dists is PropagateNearest's distance vector; nil for ColumnWeighted.
	Dists []float64
	// Mean is stats.Mean(Scores) for ColumnWeighted — the aggregation
	// control variate's known mean, folded as aggregation.Estimate folds
	// it — and 0 for ColumnNearest.
	Mean float64

	v          *Version
	designOnce sync.Once
	design     *supg.Design

	// The limit scan order, shared by every request: heaps holds the part no
	// request has reached yet and is advanced only under orderMu; prefix is
	// the part popped so far, published for lock-free reads. A published
	// prefix is never written again: growing it publishes a new vector.
	orderOnce sync.Once
	orderMu   sync.Mutex
	heaps     *limitq.Cursor
	prefix    atomic.Pointer[[]int]

	// exact holds one cell per record, allocated by the first setValue.
	exact atomic.Pointer[[]atomic.Uint64]
}

// bytes is the payload the store charges a column. A nearest one holds five
// vectors of 8 bytes per record: scores, distances, heap IDs, the scan prefix
// (every record's ID after an exhausted scan) and exact scores. A weighted one
// holds four — scores, the design's prefix sums, exact scores and the sorted
// copy of the scores the first select's count builds — plus the design's
// guide table, 4 bytes per record and two more. The derived vectors are
// charged before they are built, so the bound holds whenever a request first
// asks for them.
func (c *Column) bytes() int64 {
	n := int64(len(c.Scores))
	if c.Kind == ColumnNearest {
		return 5 * 8 * n
	}
	return 4*8*n + 4*(n+2)
}

// Value returns the scoring function's exact score of record id — its score
// of the record's annotation, not the propagated estimate in Scores — when
// some request has recorded it with setValue. It takes no lock.
func (c *Column) Value(id int) (v float64, known bool) {
	cells := c.exact.Load()
	if cells == nil {
		return 0, false
	}
	stored := (*cells)[id].Load()
	return math.Float64frombits(stored ^ unknownValue), stored != 0
}

// peek is Value over a block of records: vals[i] and known[i] are what
// Value(ids[i]) returns, read in one pass so the block's cache misses overlap.
func (c *Column) peek(ids []int, vals []float64, known []bool) {
	cells := c.exact.Load()
	if cells == nil {
		clear(known)
		return
	}
	exact := *cells
	for i, id := range ids {
		stored := exact[id].Load()
		vals[i], known[i] = math.Float64frombits(stored^unknownValue), stored != 0
	}
}

// setValue records v as the exact score of record id. The caller must have
// obtained the record's label through the label store and scored it with this
// column's Scorer: a known value is then worth exactly a store hit, and every
// writer of one cell writes the same bits. Values live and die with the
// column — a successor version's column starts with none.
func (c *Column) setValue(id int, v float64) {
	cells := c.exact.Load()
	if cells == nil {
		fresh := make([]atomic.Uint64, len(c.Scores))
		c.exact.CompareAndSwap(nil, &fresh)
		cells = c.exact.Load()
	}
	(*cells)[id].Store(math.Float64bits(v) ^ unknownValue)
}

// Design returns SUPG's sampling design over a ColumnWeighted column's
// scores, built by the first request that selects over the column.
func (c *Column) Design() *supg.Design {
	if c.Kind != ColumnWeighted {
		panic("shard: Design on a column that is not ColumnWeighted")
	}
	c.designOnce.Do(func() { c.design = supg.NewDesign(c.Scores) })
	return c.design
}

// minScanPrefix is the length of the first scan prefix a column pops; each
// later growth at least doubles it.
const minScanPrefix = 64

// Cursor returns a reader of a ColumnNearest column's limit-scan order:
// descending score, ties by ascending distance, then ID. The first call heaps
// each shard's range through LimitCursor (one child span per shard under sp,
// nil disables tracing); every later call costs one small allocation, and the
// reader's IDs come from the column's shared scan prefix. hit reports that
// the heaps were already built. The heaps cover the shard ranges of the
// version c was fetched from.
func (c *Column) Cursor(sp *telemetry.Span) (cur *ScanCursor, hit bool) {
	if c.Kind != ColumnNearest {
		panic("shard: Cursor on a column that is not ColumnNearest")
	}
	hit = true
	c.orderOnce.Do(func() {
		hit = false
		c.heaps = c.v.LimitCursor(c.Scores, c.Dists, sp)
		c.prefix.Store(new([]int))
	})
	return &ScanCursor{col: c}, hit
}

// scanPrefix returns the scan order's first IDs: at least need of them, or
// all when the order has fewer. A prefix already long enough is one atomic
// load; a short one grows under orderMu, to at least twice its length, so the
// heaps are popped at most twice as far as the deepest reader reads. limitq's
// comparator is a strict total order, so every reader sees the IDs a fresh
// cursor over the same vectors yields.
func (c *Column) scanPrefix(need int) []int {
	if p := *c.prefix.Load(); len(p) >= need || len(p) == len(c.Scores) {
		return p
	}
	c.orderMu.Lock()
	defer c.orderMu.Unlock()
	p := *c.prefix.Load()
	if len(p) >= need {
		return p
	}
	// Exactly as long as it needs to be: the prefix never outgrows the one
	// vector bytes charges for it, and the heaps hold every ID it lacks.
	grown := make([]int, min(max(need, 2*len(p), minScanPrefix), len(c.Scores)))
	copy(grown, p)
	for i := len(p); i < len(grown); i++ {
		grown[i], _ = c.heaps.Next()
	}
	c.prefix.Store(&grown)
	return grown
}

// ScanCursor is one request's position in a nearest column's scan order. It
// is not safe for concurrent use; readers of one column each take their own.
type ScanCursor struct {
	col  *Column
	ids  []int // the column's prefix as this reader last loaded it
	next int
}

// Next returns the next record ID in scan order; ok is false once every ID
// has been yielded.
func (r *ScanCursor) Next() (id int, ok bool) {
	if r.next == len(r.ids) {
		r.ids = r.col.scanPrefix(r.next + 1)
		if r.next == len(r.ids) {
			return 0, false
		}
	}
	id = r.ids[r.next]
	r.next++
	return id, true
}

// Column returns the proxy column of sc under kind for this version,
// building it on a miss with the code the uncached calls run (PropagateK at
// the table's K, or PropagateNearest; one child span per shard under
// sp) — so a column is bitwise the slice those calls return. hit reports that
// no propagation ran for this call. Concurrent fetches of one key share one
// build.
func (v *Version) Column(sc Scorer, kind ColumnKind, sp *telemetry.Span) (col *Column, hit bool, err error) {
	e, hit := v.cols.acquire(columnKey{sc.Name, kind})
	if hit {
		<-e.ready
		return e.col, true, e.err
	}
	// Deferred so that a panicking score function still releases the
	// fetches waiting on this build.
	defer v.cols.finish(e)
	e.col, e.err = v.buildColumn(sc.Score, kind, sp)
	return e.col, false, e.err
}

func (v *Version) buildColumn(score core.ScoreFunc, kind ColumnKind, sp *telemetry.Span) (*Column, error) {
	col := &Column{Kind: kind, Generation: v.gen, v: v}
	var err error
	switch kind {
	case ColumnWeighted:
		col.Scores, err = v.PropagateK(score, v.K(), sp)
		if err == nil {
			col.Mean = stats.Mean(col.Scores)
		}
	case ColumnNearest:
		col.Scores, col.Dists, err = v.PropagateNearest(score, sp)
	default:
		err = fmt.Errorf("shard: unknown column kind %d", kind)
	}
	if err != nil {
		return nil, err
	}
	return col, nil
}

// ColumnStats is the store's residency for /admin/status and the
// tasti_proxy_column_bytes / tasti_index_generation gauges.
type ColumnStats struct {
	// Entries is the number of retained columns.
	Entries int
	// Bytes is their charged payload, at most the 64 MiB budget.
	Bytes int64
	// Generation counts the state-changing mutations applied to this index
	// object since it was split, loaded or cloned.
	Generation uint64
}

// ColumnStats reports the version's generation and what its column store
// retains.
func (v *Version) ColumnStats() ColumnStats {
	cs := v.cols
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return ColumnStats{Entries: cs.lru.Len(), Bytes: cs.bytes, Generation: v.gen}
}

type columnKey struct {
	name string
	kind ColumnKind
}

// columnEntry is one key's column, in flight until ready closes. An entry
// sits in the store's map from the moment its build starts (later fetches
// wait on it instead of building again) and in the LRU list once it is
// built and retained.
type columnEntry struct {
	key   columnKey
	ready chan struct{} // closed by finish, after col and err are set
	col   *Column
	err   error
	elem  *list.Element // nil until retained
}

// columnStore is the byte-bounded column memo of one generation: every entry
// was built from the immutable state of the versions that share the store.
// The mutex guards the map, the LRU list and the byte count; builds run
// outside it, one per entry. The hit, miss and eviction counters come from
// the owning index's wiring.
type columnStore struct {
	mu      sync.Mutex
	entries map[columnKey]*columnEntry
	lru     list.List // retained entries, most recently used at the front
	bytes   int64
	budget  int64
	w       *wiring
}

func newColumnStore(budget int64, w *wiring) *columnStore {
	return &columnStore{entries: make(map[columnKey]*columnEntry), budget: budget, w: w}
}

// len counts the store's entries, retained and in flight.
func (cs *columnStore) len() int {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	return len(cs.entries)
}

// acquire returns key's entry, creating it — for the caller to build and
// finish — when the store has none. A hit on an entry still in
// flight is a hit: the caller waits on ready instead of propagating.
func (cs *columnStore) acquire(key columnKey) (e *columnEntry, hit bool) {
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if e, ok := cs.entries[key]; ok {
		if e.elem != nil {
			cs.lru.MoveToFront(e.elem)
		}
		cs.w.mColHit.Inc()
		return e, true
	}
	e = &columnEntry{key: key, ready: make(chan struct{})}
	cs.entries[key] = e
	cs.w.mColMiss.Inc()
	return e, false
}

// finish publishes a built entry to its waiters and decides retention: a
// failed build and a column over the whole budget are served but not kept;
// anything else is retained and the least recently used columns make room
// for it.
func (cs *columnStore) finish(e *columnEntry) {
	defer close(e.ready)
	if e.col == nil && e.err == nil {
		e.err = errors.New("shard: building proxy column: score function panicked")
	}
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if e.err != nil || e.col.bytes() > cs.budget {
		delete(cs.entries, e.key)
		return
	}
	e.elem = cs.lru.PushFront(e)
	cs.bytes += e.col.bytes()
	for cs.bytes > cs.budget {
		old := cs.lru.Remove(cs.lru.Back()).(*columnEntry)
		delete(cs.entries, old.key)
		cs.bytes -= old.col.bytes()
		cs.w.mColEvict.Inc()
	}
}
