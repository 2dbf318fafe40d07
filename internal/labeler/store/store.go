// Package store implements the cross-query label store: a concurrency-safe
// record→annotation cache that every query processor consults before
// spending a target-labeler invocation, with singleflight coalescing so
// concurrent requests for the same record issue exactly one oracle call, and
// a global budget manager that admits those calls per tenant.
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
}

// call is one in-flight oracle invocation. The leader closes done exactly
// once, after ann/err are written; waiters read them only after done.
type call struct {
	done chan struct{}
	ann  dataset.Annotation
	err  error
}

// Store is the shared label store. All methods are safe for concurrent use.
//
// The store is append-only and first-writer-wins, and record IDs are dense,
// so beside the map it keeps a lock-free read index: a known label — the
// overwhelmingly common request — is answered by Get with two atomic loads
// and no mutex. The mutex serializes writers (and the in-flight table), which
// publish each new annotation into the read index as they add it to the map.
type Store struct {
	maxInflight int

	mu       sync.Mutex
	anns     map[int]dataset.Annotation
	inflight map[int]*call
	// dirty counts annotations added since the last successful Flush, so
	// periodic flushers can skip writes when nothing changed.
	dirty int64

	// pages is the read index over IDs in [0, denseLimit): an immutable
	// directory of pages of slots. A slot is stored once, under mu, when its
	// ID enters anns, and never changes after — so whatever a lock-free read
	// finds is what the map holds. Growing the directory republishes it.
	pages atomic.Pointer[[]*page]

	met atomic.Pointer[metrics]
}

const (
	pageBits = 9
	pageSize = 1 << pageBits
	// denseLimit bounds the read index; IDs outside [0, denseLimit) — no
	// record ID the index hands out, but the snapshot format allows them —
	// live in the map alone and are read under the mutex.
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
		anns:        make(map[int]dataset.Annotation),
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

// Get returns the stored annotation for id, if present. For a record ID the
// read index covers — every ID an index hands out — that is one lock-free
// lookup, hit or miss; only an out-of-range ID goes to the map.
func (s *Store) Get(id int) (dataset.Annotation, bool) {
	if uint(id) < denseLimit {
		return s.known(id)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ann, ok := s.anns[id]
	return ann, ok
}

// known is the lock-free lookup: it finds every annotation whose put has
// returned, for IDs in [0, denseLimit), and nothing outside that range.
func (s *Store) known(id int) (dataset.Annotation, bool) {
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

// put adds ann under id unless the ID already has one — the first annotation
// bought for a record is the one every later query sees — and publishes it
// to the read index. Caller holds mu.
func (s *Store) put(id int, ann dataset.Annotation) {
	if _, dup := s.anns[id]; dup {
		return
	}
	s.anns[id] = ann
	s.dirty++
	s.index(id, ann)
}

// index publishes one annotation to the read index. Caller holds mu, which
// makes it the only writer of the directory and of unset slots.
func (s *Store) index(id int, ann dataset.Annotation) {
	if uint(id) >= denseLimit {
		return
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
}

// Put stores an annotation bought elsewhere (index construction, cracking).
// An existing entry wins, so concurrent writers cannot flap answers.
func (s *Store) Put(id int, ann dataset.Annotation) {
	s.mu.Lock()
	s.put(id, ann)
	s.met.Load().entries.Set(float64(len(s.anns)))
	s.mu.Unlock()
}

// Warm seeds the store with already-known annotations — typically the
// serving index's representative annotations, which were bought at build
// time and would otherwise be re-bought by the first queries.
func (s *Store) Warm(anns map[int]dataset.Annotation) {
	s.mu.Lock()
	for id, ann := range anns {
		s.put(id, ann)
	}
	s.met.Load().entries.Set(float64(len(s.anns)))
	s.mu.Unlock()
}

// Len returns the resident annotation count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.anns)
}

// Dirty returns how many annotations were added since the last successful
// Flush (or MarkClean).
func (s *Store) Dirty() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.dirty
}

// MarkClean zeroes the dirty counter — used after seeding a store from a
// snapshot that is already on disk, so the next periodic flush is not forced
// to rewrite identical content.
func (s *Store) MarkClean() {
	s.mu.Lock()
	s.dirty = 0
	s.mu.Unlock()
}

// Annotations returns a copy of the stored annotations.
func (s *Store) Annotations() map[int]dataset.Annotation {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[int]dataset.Annotation, len(s.anns))
	for id, ann := range s.anns {
		out[id] = ann
	}
	return out
}

// Bind wraps inner as a labeler that consults the store first, coalesces
// concurrent misses for the same record into one oracle call, and — when
// budget is non-nil — reserves one invocation from tenant's budget before
// each oracle call, refunding it if the call fails.
//
// lookup, when non-nil, is a secondary read-only source consulted on a store
// miss before any budget or oracle spend — the serving index's annotation
// map, so records annotated by construction or cracking are free. A lookup
// hit is promoted into the store.
func (s *Store) Bind(inner labeler.Labeler, budget *Budget, tenant string, lookup func(int) (dataset.Annotation, bool)) labeler.Labeler {
	return &boundLabeler{store: s, inner: inner, budget: budget, tenant: tenant, lookup: lookup}
}

// boundLabeler is one (tenant, inner) binding of the store.
type boundLabeler struct {
	store  *Store
	inner  labeler.Labeler
	budget *Budget
	tenant string
	lookup func(int) (dataset.Annotation, bool)
}

func (b *boundLabeler) Label(id int) (dataset.Annotation, error) {
	return b.LabelContext(context.Background(), id)
}

// LabelContext implements labeler.ContextLabeler. The fast path is the
// lock-free read index; everything else takes the mutex, and the miss path
// runs the oracle outside it.
func (b *boundLabeler) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	s := b.store
	met := s.met.Load()
	if ann, ok := s.known(id); ok {
		met.hits.Inc()
		return ann, nil
	}
	s.mu.Lock()
	if ann, ok := s.anns[id]; ok {
		s.mu.Unlock()
		met.hits.Inc()
		return ann, nil
	}
	if c, ok := s.inflight[id]; ok {
		// Another goroutine is already buying this annotation; wait for it
		// and share the result or its typed error. Exactly one oracle call
		// is issued regardless of how many queries race here.
		s.mu.Unlock()
		met.reg.Counter("tasti_labelstore_coalesced_total").Inc()
		select {
		case <-c.done:
			return c.ann, c.err
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	// Secondary source: annotations the index already owns (representatives,
	// cracked records) are free — no budget, no oracle.
	if b.lookup != nil {
		if ann, ok := b.lookup(id); ok {
			s.put(id, ann)
			met.entries.Set(float64(len(s.anns)))
			s.mu.Unlock()
			met.hits.Inc()
			return ann, nil
		}
	}
	if len(s.inflight) >= s.maxInflight {
		s.mu.Unlock()
		met.reg.Counter("tasti_labelstore_saturated_total").Inc()
		return nil, fmt.Errorf("labeler store: %d oracle calls in flight: %w", s.maxInflight, ErrSaturated)
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
		s.put(id, c.ann)
		met.entries.Set(float64(len(s.anns)))
	}
	delete(s.inflight, id)
	s.mu.Unlock()
	close(c.done)
	return c.ann, c.err
}

// buy performs one admitted oracle call.
func (b *boundLabeler) buy(ctx context.Context, id int) (dataset.Annotation, error) {
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

func (b *boundLabeler) Name() string            { return b.inner.Name() }
func (b *boundLabeler) Cost() labeler.CostModel { return b.inner.Cost() }

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
