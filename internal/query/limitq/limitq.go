// Package limitq implements BlazeIt-style limit queries: find K records
// matching a rare predicate by examining records with the target labeler in
// descending proxy-score order. Proxy scores that rank the rare events early
// mean fewer labeler invocations — the mechanism behind the paper's
// Figure 6.
package limitq

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
)

// Predicate reports whether a target-labeler output matches the query.
type Predicate func(ann dataset.Annotation) bool

// Options configures a limit query beyond its required arguments. The zero
// value is what Run uses.
type Options struct {
	// Telemetry, when non-nil, counts query runs and per-record labeler
	// spend (tasti_query_runs_total / tasti_query_label_calls_total with
	// type="limit"). Record-only: scan order is unaffected.
	Telemetry *telemetry.Registry
}

// Result is the limit-query output.
type Result struct {
	// Found holds the IDs of matching records, in discovery order, at most
	// Limit of them.
	Found []int
	// OracleCalls is the number of target-labeler invocations consumed.
	OracleCalls int64
	// Exhausted reports that the whole dataset was scanned without finding
	// Limit matches.
	Exhausted bool
	// Labeled maps every examined record to its annotation, so callers can
	// crack the index with the labels the query paid for.
	Labeled map[int]dataset.Annotation
	// Degraded marks a scan cut short by label-budget exhaustion: Found is
	// the verified prefix — every record labeled before the budget ran out,
	// in scan order — rather than the full K matches. The prefix is exact
	// as far as it goes; nothing past the last labeled record was judged.
	Degraded bool
}

// Run scans records in descending proxy-score order — ties broken by
// ascending tieDist (the distance to the nearest cluster representative, per
// the paper's Section 6.3 custom scoring), then by ID — labeling each until
// limit matches are found. tieDist may be nil. It is RunNext over one heap.
func Run(limit int, proxy, tieDist []float64, pred Predicate, lab labeler.Labeler) (Result, error) {
	n := len(proxy)
	if n == 0 {
		return Result{}, errors.New("limitq: empty dataset")
	}
	if tieDist != nil && len(tieDist) != n {
		return Result{}, fmt.Errorf("limitq: %d tie distances for %d records", len(tieDist), n)
	}
	return RunNext(Options{}, limit, NewCursor(proxy, tieDist, 1).Next, pred, lab)
}

// Order returns every record ID in scan order: descending proxy score, ties
// broken by ascending tieDist (nil disables the tie distance), then by
// ascending ID. The comparator is a strict total order, so the permutation is
// unique — which is what lets a cursor heap ranges of the records apart and
// merge them head by head into the identical global order. Order is the
// full drain of the same Cursor a scan pops lazily; a limit query that labels
// a few dozen records should take those from the Cursor instead of paying
// O(n log n) for a permutation it reads the front of.
func Order(proxy, tieDist []float64) []int {
	return NewCursor(proxy, tieDist, 1).Drain()
}

// heap is a binary min-heap of the record IDs [lo, hi) under Less: building
// it is O(hi-lo), and a Cursor takes each next ID off it in O(log(hi-lo)).
// It reads proxy (and tieDist, when non-nil) at the global IDs and copies
// neither.
type heap struct {
	proxy, tieDist []float64
	ids            []int
}

// newHeap heapifies the record IDs [lo, hi).
func newHeap(proxy, tieDist []float64, lo, hi int) *heap {
	h := &heap{proxy: proxy, tieDist: tieDist, ids: make([]int, hi-lo)}
	for j := range h.ids {
		h.ids[j] = lo + j
	}
	for i := len(h.ids)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
	return h
}

// pop removes and returns the ID that scans before every other ID left. The
// heap must be non-empty.
func (h *heap) pop() int {
	top := h.ids[0]
	last := len(h.ids) - 1
	h.ids[0] = h.ids[last]
	h.ids = h.ids[:last]
	if last > 0 {
		h.down(0)
	}
	return top
}

// down sifts the ID at position i toward the leaves until neither child
// scans before it.
func (h *heap) down(i int) {
	ids := h.ids
	id := ids[i]
	for {
		c := 2*i + 1
		if c >= len(ids) {
			break
		}
		if c+1 < len(ids) && Less(h.proxy, h.tieDist, ids[c+1], ids[c]) {
			c++
		}
		if !Less(h.proxy, h.tieDist, ids[c], id) {
			break
		}
		ids[i] = ids[c]
		i = c
	}
	ids[i] = id
}

// Cursor yields record IDs in scan order lazily, merging one heap per
// contiguous ID range head by head. Less is a strict total order over
// distinct IDs, so the sequence is the one permutation Order returns however
// the ranges were cut.
type Cursor struct {
	heaps []*heap
}

// NewCursor heaps the record IDs [0, len(proxy)) as parts contiguous ranges
// — range i is [i·n/parts, (i+1)·n/parts), at most one per record — each
// heapified on its own goroutine, O(n) in total, and returns the cursor that
// merges them, O(parts + log n) per ID taken. Splitting the O(n) heapify is
// what spreads a limit column's build over the workers.
func NewCursor(proxy, tieDist []float64, parts int) *Cursor {
	n := len(proxy)
	parts = max(1, min(parts, n))
	heaps := make([]*heap, parts)
	if parts == 1 {
		heaps[0] = newHeap(proxy, tieDist, 0, n)
		return &Cursor{heaps: heaps}
	}
	var wg sync.WaitGroup
	for i := range heaps {
		wg.Add(1)
		go func() {
			defer wg.Done()
			heaps[i] = newHeap(proxy, tieDist, i*n/parts, (i+1)*n/parts)
		}()
	}
	wg.Wait()
	return &Cursor{heaps: heaps}
}

// Next returns the next record ID in scan order; ok is false once every ID
// has been yielded.
func (c *Cursor) Next() (id int, ok bool) {
	var best *heap
	for _, h := range c.heaps {
		if len(h.ids) > 0 && (best == nil || Less(h.proxy, h.tieDist, h.ids[0], best.ids[0])) {
			best = h
		}
	}
	if best == nil {
		return 0, false
	}
	return best.pop(), true
}

// Drain returns every ID not yet yielded, in scan order.
func (c *Cursor) Drain() []int {
	m := 0
	for _, h := range c.heaps {
		m += len(h.ids)
	}
	out := make([]int, 0, m)
	for id, ok := c.Next(); ok; id, ok = c.Next() {
		out = append(out, id)
	}
	return out
}

// Less reports whether record i scans before record j: the one comparator
// every Cursor orders by.
func Less(proxy, tieDist []float64, i, j int) bool {
	if proxy[i] != proxy[j] {
		return proxy[i] > proxy[j]
	}
	if tieDist != nil && tieDist[i] != tieDist[j] {
		return tieDist[i] < tieDist[j]
	}
	return i < j
}

// RunScan labels records in the given scan order until limit matches are
// found: RunNext over a materialized order.
func RunScan(opts Options, limit int, order []int, pred Predicate, lab labeler.Labeler) (Result, error) {
	i := 0
	return RunNext(opts, limit, func() (int, bool) {
		if i == len(order) {
			return 0, false
		}
		i++
		return order[i-1], true
	}, pred, lab)
}

// RunNext labels the records next yields, in that order, until limit matches
// are found or next reports the order exhausted: the one scan loop behind
// Run, RunScan and the served index's column cursor, which pays for only as
// much of the order as the scan consumes.
func RunNext(opts Options, limit int, next func() (id int, ok bool), pred Predicate, lab labeler.Labeler) (Result, error) {
	if limit <= 0 {
		return Result{}, fmt.Errorf("limitq: limit must be positive, got %d", limit)
	}
	id, ok := next()
	if !ok {
		return Result{}, errors.New("limitq: empty dataset")
	}

	opts.Telemetry.Counter(`tasti_query_runs_total{type="limit"}`).Inc()
	mCalls := opts.Telemetry.Counter(`tasti_query_label_calls_total{type="limit"}`)

	res := Result{Labeled: make(map[int]dataset.Annotation)}
	for ; ok; id, ok = next() {
		ann, err := lab.Label(id)
		if err != nil {
			// Budget exhaustion mid-scan is graceful: the matches verified so
			// far are returned as the (exact) prefix, flagged Degraded. The
			// very first call failing leaves nothing verified, so the error
			// surfaces instead. Any other failure fails the query as before.
			if errors.Is(err, labeler.ErrBudgetExhausted) && res.OracleCalls > 0 {
				res.Degraded = true
				opts.Telemetry.Counter(`tasti_query_degraded_total{type="limit"}`).Inc()
				return res, nil
			}
			return Result{}, fmt.Errorf("limitq: labeling record %d: %w", id, err)
		}
		res.OracleCalls++
		mCalls.Inc()
		res.Labeled[id] = ann
		if pred(ann) {
			res.Found = append(res.Found, id)
			if len(res.Found) == limit {
				return res, nil
			}
		}
	}
	res.Exhausted = true
	return res, nil
}
