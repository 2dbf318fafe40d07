package limitq

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

// referenceOrderRange is OrderRange as it stood before the heap: the bounded
// TopK selection without tie distances, a comparison sort with them. Kept
// verbatim as the reference the heap order must equal.
func referenceOrderRange(proxy, tieDist []float64, lo, hi int) []int {
	m := hi - lo
	order := make([]int, m)
	if tieDist == nil {
		tk := vecmath.NewTopK(m)
		for i := lo; i < hi; i++ {
			tk.Offer(i, -proxy[i])
		}
		for j, iv := range tk.Sorted(make([]vecmath.IndexedValue, 0, m)) {
			order[j] = iv.Index
		}
		return order
	}
	for j := range order {
		order[j] = lo + j
	}
	sort.Slice(order, func(a, b int) bool {
		return Less(proxy, tieDist, order[a], order[b])
	})
	return order
}

// orderInputs returns proxy/tieDist vectors of n records: continuous scores,
// and scores drawn from four values with distances drawn from three, so most
// comparisons fall through to the tie-breakers.
func orderInputs(n int) map[string][2][]float64 {
	r := xrand.New(3)
	smooth, smoothDist := make([]float64, n), make([]float64, n)
	tied, tiedDist := make([]float64, n), make([]float64, n)
	for i := 0; i < n; i++ {
		smooth[i], smoothDist[i] = r.Float64(), r.Float64()
		tied[i], tiedDist[i] = float64(r.Intn(4)), float64(r.Intn(3))*0.5
	}
	return map[string][2][]float64{
		"smooth":         {smooth, smoothDist},
		"smooth/no-dist": {smooth, nil},
		"tied":           {tied, tiedDist},
		"tied/no-dist":   {tied, nil},
		"all-equal":      {make([]float64, n), nil},
	}
}

// cutCursor builds the cursor a sharded index would: one heap per contiguous
// range, cut the way shard.Split cuts.
func cutCursor(proxy, tieDist []float64, shards int) *Cursor {
	n := len(proxy)
	heaps := make([]*Heap, shards)
	for s := range heaps {
		heaps[s] = NewHeap(proxy, tieDist, s*n/shards, (s+1)*n/shards)
	}
	return NewCursor(heaps...)
}

// TestCursorMatchesSortedReference requires the heap-merge order to equal the
// sorted reference both as a short prefix (what a scan takes) and as a full
// drain (what Order and LimitOrder return), under heavy ties, without tie
// distances, and at 1, 2, 4 and 7 ranges.
func TestCursorMatchesSortedReference(t *testing.T) {
	const n = 3001
	for name, in := range orderInputs(n) {
		proxy, tieDist := in[0], in[1]
		want := referenceOrderRange(proxy, tieDist, 0, n)
		if got := Order(proxy, tieDist); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Order differs from the sorted reference", name)
		}
		for _, shards := range []int{1, 2, 4, 7} {
			c := cutCursor(proxy, tieDist, shards)
			var prefix []int
			for len(prefix) < 50 {
				id, ok := c.Next()
				if !ok {
					t.Fatalf("%s shards=%d: cursor ended after %d ids", name, shards, len(prefix))
				}
				prefix = append(prefix, id)
			}
			if !reflect.DeepEqual(prefix, want[:50]) {
				t.Fatalf("%s shards=%d: 50-id prefix\n got %v\nwant %v", name, shards, prefix, want[:50])
			}
			if rest := c.Drain(); !reflect.DeepEqual(rest, want[50:]) {
				t.Fatalf("%s shards=%d: drain after the prefix differs from the sorted reference", name, shards)
			}
			if _, ok := c.Next(); ok {
				t.Fatalf("%s shards=%d: drained cursor still yields", name, shards)
			}
		}
	}
}

// TestHeapSubrange checks a heap over an interior range yields exactly that
// range's IDs, in the reference order.
func TestHeapSubrange(t *testing.T) {
	in := orderInputs(500)["tied"]
	h := NewHeap(in[0], in[1], 120, 377)
	want := referenceOrderRange(in[0], in[1], 120, 377)
	got := NewCursor(h).Drain()
	if !reflect.DeepEqual(got, want) {
		t.Fatal("subrange heap order differs from the sorted reference")
	}
}

// BenchmarkOrderFirst24 prices what a limit query pays for its scan order:
// heapify plus the first 24 IDs, beside the full permutation it used to sort.
func BenchmarkOrderFirst24(b *testing.B) {
	for _, n := range []int{20000, 60000} {
		in := orderInputs(n)["tied"]
		b.Run(fmt.Sprintf("first24/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				c := NewCursor(NewHeap(in[0], in[1], 0, n))
				for k := 0; k < 24; k++ {
					c.Next()
				}
			}
		})
		b.Run(fmt.Sprintf("drain/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				Order(in[0], in[1])
			}
		})
		b.Run(fmt.Sprintf("sorted-reference/n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				referenceOrderRange(in[0], in[1], 0, n)
			}
		})
	}
}
