package limitq

import (
	"fmt"
	"slices"
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

// TestCursorMatchesSortedReference requires the heap-merge order to equal the
// sorted reference both as a short prefix (what a scan takes) and as a full
// drain (what Order and LimitOrder return), under heavy ties, without tie
// distances, over 0, 1, 2 and 3001 records, cut into 1, 2, 3 and 7 worker
// ranges.
func TestCursorMatchesSortedReference(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3001} {
		for name, in := range orderInputs(n) {
			proxy, tieDist := in[0], in[1]
			want := referenceOrderRange(proxy, tieDist, 0, n)
			if got := Order(proxy, tieDist); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d: Order differs from the sorted reference", name, n)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				at := fmt.Sprintf("%s n=%d workers=%d", name, n, workers)
				c := NewCursor(proxy, tieDist, workers)
				if len(c.heaps) != max(1, min(workers, n)) {
					t.Fatalf("%s: %d heaps", at, len(c.heaps))
				}
				var prefix []int
				for len(prefix) < min(50, n) {
					id, ok := c.Next()
					if !ok {
						t.Fatalf("%s: cursor ended after %d ids", at, len(prefix))
					}
					prefix = append(prefix, id)
				}
				if !slices.Equal(prefix, want[:len(prefix)]) {
					t.Fatalf("%s: %d-id prefix\n got %v\nwant %v", at, len(prefix), prefix, want[:len(prefix)])
				}
				if rest := c.Drain(); !slices.Equal(rest, want[len(prefix):]) {
					t.Fatalf("%s: drain after the prefix differs from the sorted reference", at)
				}
				if _, ok := c.Next(); ok {
					t.Fatalf("%s: drained cursor still yields", at)
				}
			}
		}
	}
}

// TestHeapSubrange checks a heap over an interior range yields exactly that
// range's IDs, in the reference order.
func TestHeapSubrange(t *testing.T) {
	in := orderInputs(500)["tied"]
	got := (&Cursor{heaps: []*heap{newHeap(in[0], in[1], 120, 377)}}).Drain()
	if want := referenceOrderRange(in[0], in[1], 120, 377); !slices.Equal(got, want) {
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
				c := NewCursor(in[0], in[1], 1)
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
