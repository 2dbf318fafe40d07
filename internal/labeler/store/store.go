// Package store implements the label store: the repository's one
// record→annotation cache. Index construction labels through it, query
// processors consult it before spending a target-labeler invocation, and
// concurrent requests for the same record are coalesced into exactly one
// oracle call; a global budget manager admits those calls per tenant.
//
// The economics motivating the package are the paper's: the target labeler
// is the dominant cost of every query, and without a shared store N
// concurrent queries over one corpus re-buy the same annotation up to N
// times. The store amortizes oracle spend across queries the way the index
// itself amortizes it across records — an annotation bought once is free
// forever after, and a herd of queries racing toward the same unlabeled
// record collapses into one in-flight call whose waiters share the result
// (or its typed error).
//
// Everything here is semantics-preserving: a stored annotation is exactly
// what the oracle returned, so query answers are bitwise identical with the
// store on or off — the store only changes who pays. The budget manager is
// the one deliberate exception: when a tenant's admission fails, the
// labeler returns labeler.ErrBudgetExhausted and the query processors
// degrade gracefully instead of failing (see internal/query/*'s Degraded
// result fields).
package store

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
)

// ErrSaturated is returned when the in-flight coalescing table is full: more
// distinct records are being labeled concurrently than the store is
// configured to track. It is backpressure, not failure — callers should shed
// or retry later (tastiserve maps it to 429 + Retry-After).
var ErrSaturated = errors.New("labeler store: in-flight label table saturated")

// Options configures a Store. The zero value is usable.
type Options struct {
	// MaxInflight bounds distinct records with an oracle call in flight at
	// once; beyond it new misses fail with ErrSaturated — the
	// thundering-herd containment valve (<= 0 uses 1024).
	MaxInflight int
	// Telemetry, when non-nil, counts hits, misses, coalesced waiters, and
	// saturation rejections, and gauges the resident entry count.
	// Record-only: results are bitwise identical with or without it.
	Telemetry *telemetry.Registry
	// Corpus names the corpus the store's record IDs index. Save records
	// it, and Restore reads only a snapshot that names the same one.
	Corpus Corpus
}

// call is one in-flight oracle invocation. The leader closes done exactly
// once, after ann/err are written; waiters read them only after done.
type call struct {
	done chan struct{}
	ann  dataset.Annotation
	err  error
}

// Store is the label store. All methods are safe for concurrent use.
//
// It holds each annotation once, in a paged array indexed by record ID: an
// immutable directory of pages of slots. The store is append-only and
// first-writer-wins, so a slot is stored once, under mu, and never changes
// after — which lets Get, and every known label a bound labeler answers, read
// it with two atomic loads and no mutex. The mutex serializes writers (and
// guards the in-flight table and the dirty count). Record IDs are dense; an
// ID outside [0, denseLimit) is never cached.
type Store struct {
	maxInflight int
	corpus      Corpus

	mu       sync.Mutex
	inflight map[int]*call
	// dirty counts annotations added since the last successful Flush, so
	// periodic flushers can skip writes when nothing changed.
	dirty int64

	// pages is the directory; growing it republishes it. n counts the
	// annotations held: written under mu, read without it.
	pages atomic.Pointer[[]*page]
	n     atomic.Int64

	met atomic.Pointer[metrics]
}

const (
	pageBits = 9
	pageSize = 1 << pageBits
	// denseLimit bounds the record IDs the store caches: every ID an index
	// hands out is far below it. Load rejects a snapshot holding one past it,
	// and a bound labeler sends one to the oracle uncached.
	denseLimit = 1 << 22
)

type page [pageSize]atomic.Pointer[dataset.Annotation]

// metrics is the store's telemetry: the handles every label request touches,
// resolved once per registry so that no hit or miss looks a name up, and the
// registry itself for the rare events (nil-safe on a nil registry).
type metrics struct {
	reg          *telemetry.Registry
	hits, misses *telemetry.Counter
	entries      *telemetry.Gauge
}

// New returns an empty store.
func New(opts Options) *Store {
	maxIn := opts.MaxInflight
	if maxIn <= 0 {
		maxIn = 1024
	}
	s := &Store{
		maxInflight: maxIn,
		corpus:      opts.Corpus,
		inflight:    make(map[int]*call),
	}
	s.SetTelemetry(opts.Telemetry)
	return s
}

// SetTelemetry directs the store's counters into reg; a nil registry
// disables recording.
func (s *Store) SetTelemetry(reg *telemetry.Registry) {
	s.met.Store(&metrics{
		reg:     reg,
		hits:    reg.Counter("tasti_labelstore_hits_total"),
		misses:  reg.Counter("tasti_labelstore_misses_total"),
		entries: reg.Gauge("tasti_labelstore_entries"),
	})
}

// Get returns the stored annotation for id, if present: one lock-free
// lookup, hit or miss. It finds every annotation whose put has returned.
func (s *Store) Get(id int) (dataset.Annotation, bool) {
	dir := s.pages.Load()
	if dir == nil || uint(id)>>pageBits >= uint(len(*dir)) {
		return nil, false
	}
	pg := (*dir)[id>>pageBits]
	if pg == nil {
		return nil, false
	}
	ann := pg[id&(pageSize-1)].Load()
	if ann == nil {
		return nil, false
	}
	return *ann, true
}

// put stores ann under id unless the ID already has one — the first
// annotation bought for a record is the one every later query sees — and
// returns the annotation id holds afterwards. An ID outside [0, denseLimit)
// is not stored. Caller holds mu, which makes it the only writer of the
// directory and of unset slots.
func (s *Store) put(id int, ann dataset.Annotation) dataset.Annotation {
	if uint(id) >= denseLimit {
		return ann
	}
	if held, ok := s.Get(id); ok {
		return held
	}
	var dir []*page
	if d := s.pages.Load(); d != nil {
		dir = *d
	}
	p := id >> pageBits
	if p >= len(dir) || dir[p] == nil {
		// Directories are immutable once published: adding a page copies.
		grown := make([]*page, max(p+1, len(dir)))
		copy(grown, dir)
		grown[p] = new(page)
		s.pages.Store(&grown)
		dir = grown
	}
	dir[p][id&(pageSize-1)].Store(&ann)
	s.dirty++
	s.met.Load().entries.Set(float64(s.n.Add(1)))
	return ann
}

// Put stores an annotation bought elsewhere (index construction, cracking).
// An existing entry wins, so concurrent writers cannot flap answers.
func (s *Store) Put(id int, ann dataset.Annotation) {
	s.mu.Lock()
	s.put(id, ann)
	s.mu.Unlock()
}

// Warm seeds the store with already-known annotations, such as another
// store's.
func (s *Store) Warm(anns map[int]dataset.Annotation) {
	s.mu.Lock()
	for id, ann := range anns {
		s.put(id, ann)
	}
	s.mu.Unlock()
}

// Len returns the resident annotation count.
func (s *Store) Len() int { return int(s.n.Load()) }

// Dirty returns how many annotations were added since the last successful
// Flush.
func (s *Store) Dirty() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// Annotations returns a copy of the stored annotations.
func (s *Store) Annotations() map[int]dataset.Annotation {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.annotationsLocked()
}

// annotationsLocked walks the pages. Caller holds mu, so the copy is one
// point-in-time view.
func (s *Store) annotationsLocked() map[int]dataset.Annotation {
	out := make(map[int]dataset.Annotation, s.Len())
	dir := s.pages.Load()
	if dir == nil {
		return out
	}
	for p, pg := range *dir {
		if pg == nil {
			continue
		}
		for j := range pg {
			if ann := pg[j].Load(); ann != nil {
				out[p<<pageBits|j] = *ann
			}
		}
	}
	return out
}

// Source says where a bound labeler found an annotation.
type Source uint8

const (
	// FromStore: the store already held it.
	FromStore Source = iota
	// FromIndex: the bound lookup — the serving index's own annotations —
	// held it; it is now in the store too.
	FromIndex
	// FromInflight: another caller was buying it; this one shared the call.
	FromInflight
	// FromOracle: this caller bought it with an admitted oracle call.
	FromOracle
)

// Hit reports whether the annotation was one the system already owned, so
// labeling it spent nothing.
func (src Source) Hit() bool { return src == FromStore || src == FromIndex }

// Bind returns a labeler that consults the store first, coalesces
// concurrent misses for the same record into one oracle call to inner, and —
// when budget is non-nil — reserves one invocation from tenant's budget
// before each oracle call, refunding it if the call fails.
//
// lookup, when non-nil, is a secondary read-only source consulted on a store
// miss before any budget or oracle spend — the serving index's annotations,
// so records annotated by construction or cracking are free. A lookup hit is
// promoted into the store.
func (s *Store) Bind(inner labeler.Labeler, budget *Budget, tenant string, lookup func(int) (dataset.Annotation, bool)) *Bound {
	return &Bound{store: s, inner: inner, budget: budget, tenant: tenant, lookup: lookup}
}

// BindBuild returns the labeler an index build labels through: Bind with no
// budget, tenant or lookup, outside the in-flight cap — a build bounds its
// own concurrency, and backpressure meant for queries must never fail it —
// and outside the hit, miss, coalesced and saturated counts, which stay
// query-only. What it buys lands in the store like any other label, and in
// its entry gauge.
func (s *Store) BindBuild(inner labeler.Labeler) *Bound {
	return &Bound{store: s, inner: inner, build: true}
}

// Bound is one (tenant, inner, lookup) binding of the store: a labeler.
type Bound struct {
	store  *Store
	inner  labeler.Labeler
	budget *Budget
	tenant string
	lookup func(int) (dataset.Annotation, bool)
	build  bool
}

// untracked is the metrics a build binding counts into: none.
var untracked = &metrics{}

// metrics returns the instruments b counts its requests into.
func (b *Bound) metrics() *metrics {
	if b.build {
		return untracked
	}
	return b.store.met.Load()
}

// Label implements labeler.Labeler.
func (b *Bound) Label(id int) (dataset.Annotation, error) {
	return b.LabelContext(context.Background(), id)
}

// LabelContext implements labeler.ContextLabeler: Resolve, counting a hit.
func (b *Bound) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	ann, src, err := b.Resolve(ctx, id)
	if err == nil && src.Hit() {
		b.metrics().hits.Inc()
	}
	return ann, err
}

// Resolve labels id and reports where the annotation came from. A known
// label is one lock-free read; then the lookup; then, under the mutex, an
// in-flight call to join or a new one to lead, run outside it. Resolve
// counts misses, coalesced waiters and saturation; a hit (Source.Hit) is the
// caller's to count, so a caller answering many hits can count them at once.
// A canceled ctx ends a wait for another caller's call and is forwarded to
// inner, but a known label is returned without looking at it.
func (b *Bound) Resolve(ctx context.Context, id int) (dataset.Annotation, Source, error) {
	s := b.store
	if ann, ok := s.Get(id); ok {
		return ann, FromStore, nil
	}
	met := b.metrics()
	if uint(id) >= denseLimit {
		// Never cached, so there is nothing to find or coalesce onto.
		met.misses.Inc()
		ann, err := b.buy(ctx, id)
		return ann, FromOracle, err
	}
	// Annotations the index already owns (representatives, cracked records)
	// are free — no budget, no oracle.
	if b.lookup != nil {
		if ann, ok := b.lookup(id); ok {
			s.mu.Lock()
			ann = s.put(id, ann)
			s.mu.Unlock()
			return ann, FromIndex, nil
		}
	}
	s.mu.Lock()
	if ann, ok := s.Get(id); ok { // stored since the lock-free read
		s.mu.Unlock()
		return ann, FromStore, nil
	}
	if c, ok := s.inflight[id]; ok {
		// Another goroutine is already buying this annotation; wait for it
		// and share the result or its typed error. Exactly one oracle call
		// is issued regardless of how many queries race here.
		s.mu.Unlock()
		met.reg.Counter("tasti_labelstore_coalesced_total").Inc()
		select {
		case <-c.done:
			return c.ann, FromInflight, c.err
		case <-ctx.Done():
			return nil, FromInflight, ctx.Err()
		}
	}
	if !b.build && len(s.inflight) >= s.maxInflight {
		s.mu.Unlock()
		met.reg.Counter("tasti_labelstore_saturated_total").Inc()
		return nil, FromOracle, fmt.Errorf("labeler store: %d oracle calls in flight: %w", s.maxInflight, ErrSaturated)
	}
	c := &call{done: make(chan struct{})}
	s.inflight[id] = c
	s.mu.Unlock()
	met.misses.Inc()

	// Leader path: reserve budget, call the oracle, publish to waiters. The
	// reservation is debited at call time and refunded on failure, so a
	// failed oracle call never burns budget.
	c.ann, c.err = b.buy(ctx, id)
	s.mu.Lock()
	if c.err == nil {
		c.ann = s.put(id, c.ann)
	}
	delete(s.inflight, id)
	s.mu.Unlock()
	close(c.done)
	return c.ann, FromOracle, c.err
}

// buy performs one admitted oracle call.
func (b *Bound) buy(ctx context.Context, id int) (dataset.Annotation, error) {
	if b.budget != nil {
		if err := b.budget.Reserve(b.tenant); err != nil {
			return nil, err
		}
	}
	ann, err := labelWithContext(ctx, b.inner, id)
	if err != nil {
		if b.budget != nil {
			b.budget.Refund(b.tenant)
		}
		return nil, err
	}
	return ann, nil
}

// Name implements labeler.Labeler.
func (b *Bound) Name() string { return b.inner.Name() }

// Cost implements labeler.Labeler.
func (b *Bound) Cost() labeler.CostModel { return b.inner.Cost() }

// labelWithContext mirrors the labeler package's context bridging: forward
// ctx to context-aware labelers, otherwise check it before the plain call.
func labelWithContext(ctx context.Context, lab labeler.Labeler, id int) (dataset.Annotation, error) {
	if cl, ok := lab.(labeler.ContextLabeler); ok {
		return cl.LabelContext(ctx, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return lab.Label(id)
}
