package vecmath

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestSmallestK(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	got := SmallestK(xs, 3)
	want := []IndexedValue{{1, 1}, {3, 2}, {4, 3}}
	if len(got) != 3 {
		t.Fatalf("got %d items", len(got))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSmallestKEdgeCases(t *testing.T) {
	if got := SmallestK([]float64{1, 2}, 0); got != nil {
		t.Errorf("k=0 gave %v", got)
	}
	if got := SmallestK([]float64{2, 1}, 10); len(got) != 2 {
		t.Errorf("k>n gave %d items", len(got))
	}
	if got := SmallestK(nil, 3); len(got) != 0 {
		t.Errorf("empty input gave %v", got)
	}
}

func TestSmallestKTies(t *testing.T) {
	got := SmallestK([]float64{1, 1, 1, 1}, 2)
	if got[0].Index != 0 || got[1].Index != 1 {
		t.Errorf("ties not broken by index: %v", got)
	}
}

// TestSmallestKMatchesSort is the property check: SmallestK agrees with a
// full sort for random inputs.
func TestSmallestKMatchesSort(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%60 + 1
		k := int(kRaw)%n + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(10)) // duplicates likely
		}
		got := SmallestK(xs, k)

		type pair struct {
			idx int
			val float64
		}
		all := make([]pair, n)
		for i, v := range xs {
			all[i] = pair{i, v}
		}
		sort.Slice(all, func(a, b int) bool {
			if all[a].val != all[b].val {
				return all[a].val < all[b].val
			}
			return all[a].idx < all[b].idx
		})
		for i := 0; i < k; i++ {
			if got[i].Index != all[i].idx || got[i].Value != all[i].val {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestTopKReuseMatchesFresh pins the recycle contract: a TopK reused across
// queries via Reset (and a reused Sorted destination) selects exactly what a
// fresh selector would, including on all-tie inputs.
func TestTopKReuseMatchesFresh(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	tk := NewTopK(0)
	var dst []IndexedValue
	for trial := 0; trial < 200; trial++ {
		n := r.Intn(40) + 1
		k := r.Intn(n+3) + 1
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(r.Intn(5)) // heavy ties
		}
		tk.Reset(k)
		for i, v := range xs {
			tk.Offer(i, v)
		}
		dst = tk.Sorted(dst[:0])
		want := SmallestK(xs, k)
		if len(dst) != len(want) {
			t.Fatalf("trial %d: %d results, want %d", trial, len(dst), len(want))
		}
		for i := range want {
			if dst[i] != want[i] {
				t.Fatalf("trial %d: result %d = %v, want %v", trial, i, dst[i], want[i])
			}
		}
	}
}

// TestTopKZeroAllocWarm: a warm selector with a capacious destination must
// not allocate per query — this is the property the table scan and IVF
// probing build on.
func TestTopKZeroAllocWarm(t *testing.T) {
	xs := make([]float64, 200)
	r := rand.New(rand.NewSource(8))
	for i := range xs {
		xs[i] = r.NormFloat64()
	}
	tk := NewTopK(10)
	dst := make([]IndexedValue, 0, 10)
	if n := testing.AllocsPerRun(100, func() {
		tk.Reset(10)
		for i, v := range xs {
			tk.Offer(i, v)
		}
		dst = tk.Sorted(dst[:0])
	}); n != 0 {
		t.Errorf("warm TopK allocates %v per query", n)
	}
}
