package vecmath

import "math"

// IndexedValue pairs a value with the index it came from. It is the element
// type of top-k results.
type IndexedValue struct {
	Index int
	Value float64
}

// TopK is a reusable bounded max-heap that selects the k smallest
// (value, index) pairs from a stream. The zero value is unusable; obtain one
// with NewTopK and recycle it across queries with Reset — a warm TopK
// performs zero allocations per query, which is what lets the table min-k
// scan and IVF probing run allocation-free in steady state.
//
// Ordering matches the historical sort-based path exactly: ascending by
// value, ties broken by smaller index. The heap keeps the lexicographically
// largest (Value, Index) pair at the root so Offer can evict it in O(log k).
type TopK struct {
	h []IndexedValue
	k int
}

// NewTopK returns a selector for the k smallest pairs with capacity
// preallocated. k <= 0 yields a selector that ignores every offer.
func NewTopK(k int) *TopK {
	if k < 0 {
		k = 0
	}
	return &TopK{h: make([]IndexedValue, 0, k), k: k}
}

// Reset empties the selector and sets a new bound, growing the buffer only
// if k exceeds every bound seen before.
func (t *TopK) Reset(k int) {
	if k < 0 {
		k = 0
	}
	t.k = k
	if cap(t.h) < k {
		t.h = make([]IndexedValue, 0, k)
	} else {
		t.h = t.h[:0]
	}
}

// Len returns the number of pairs currently held (<= k).
func (t *TopK) Len() int { return len(t.h) }

// Offer considers the pair (i, v) for the k smallest.
func (t *TopK) Offer(i int, v float64) {
	h := t.h
	if len(h) < t.k {
		h = append(h, IndexedValue{i, v})
		t.h = h
		t.siftUp(len(h) - 1)
		return
	}
	if t.k == 0 {
		return
	}
	// Evict the root iff the newcomer is lexicographically smaller by
	// (Value, Index) — identical to the historical heap.Fix path.
	if v < h[0].Value || (v == h[0].Value && i < h[0].Index) {
		h[0] = IndexedValue{i, v}
		t.siftDown(0)
	}
}

// Threshold returns the current admission bound: the largest held value once
// the selector is full, +Inf before that (and -Inf for a k <= 0 selector,
// which admits nothing). Offer is guaranteed to reject any value strictly
// greater than the bound, so tight loops can skip the call entirely for such
// candidates; values equal to the bound can still win on the index tie-break
// and must be offered.
func (t *TopK) Threshold() float64 {
	if t.k == 0 {
		return math.Inf(-1)
	}
	if len(t.h) < t.k {
		return math.Inf(1)
	}
	return t.h[0].Value
}

// Sorted appends the held pairs to dst in ascending (Value, Index) order and
// returns the extended slice. The selector is left empty, ready for the next
// Reset-free reuse at the same k. Passing dst with sufficient capacity makes
// the call allocation-free.
func (t *TopK) Sorted(dst []IndexedValue) []IndexedValue {
	h := t.h
	base := len(dst)
	dst = append(dst, h...)
	out := dst[base:]
	// Repeated root extraction inside the out buffer: pop the max to the
	// shrinking tail, leaving ascending order in place.
	copy(out, h)
	for n := len(out); n > 1; n-- {
		out[0], out[n-1] = out[n-1], out[0]
		siftDownSlice(out[:n-1], 0)
	}
	t.h = h[:0]
	return dst
}

func (t *TopK) siftUp(i int) {
	h := t.h
	for i > 0 {
		parent := (i - 1) / 2
		if !pairLess(h[parent], h[i]) {
			break
		}
		h[parent], h[i] = h[i], h[parent]
		i = parent
	}
}

func (t *TopK) siftDown(i int) { siftDownSlice(t.h, i) }

// siftDownSlice restores the max-heap property for h rooted at i.
func siftDownSlice(h []IndexedValue, i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			return
		}
		big := l
		if r := l + 1; r < n && pairLess(h[big], h[r]) {
			big = r
		}
		if !pairLess(h[i], h[big]) {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// pairLess orders pairs lexicographically by (Value, Index) ascending; the
// heap is a max-heap over this order.
func pairLess(a, b IndexedValue) bool {
	if a.Value != b.Value {
		return a.Value < b.Value
	}
	return a.Index < b.Index
}

// SmallestK returns the k smallest values of xs with their indices, ordered
// ascending by value (ties broken by index). If k >= len(xs) all elements are
// returned. It runs in O(n log k) using a bounded max-heap; hot paths that
// need allocation-free selection hold a TopK directly.
func SmallestK(xs []float64, k int) []IndexedValue {
	if k <= 0 {
		return nil
	}
	if k > len(xs) {
		k = len(xs)
	}
	t := NewTopK(k)
	for i, v := range xs {
		t.Offer(i, v)
	}
	return t.Sorted(make([]IndexedValue, 0, k))
}
