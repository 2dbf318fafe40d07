package shard

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"repro/internal/telemetry"
)

// put runs one fetch of key against cs the way Index.Column does, building a
// column of n records on a miss.
func put(cs *columnStore, name string, n int) (col *Column, hit bool) {
	e, hit := cs.acquire(columnKey{name, ColumnWeighted})
	if hit {
		<-e.ready
		return e.col, true
	}
	e.col = &Column{Kind: ColumnWeighted, Scores: make([]float64, n)}
	cs.finish(e)
	return e.col, false
}

// TestColumnStoreBudget pins the store's bound: retained payload never
// exceeds the budget, the least recently used column goes first, and a column
// larger than the whole budget is served to its caller but never retained.
func TestColumnStoreBudget(t *testing.T) {
	const n = 100 // a 100-record column is charged 3200 bytes
	one := (&Column{Scores: make([]float64, n)}).bytes()
	reg := telemetry.NewRegistry()
	cs := newColumnStore(3*one, wiring{tel: reg}.resolved(1))
	evictions := reg.Counter("tasti_proxy_column_evictions_total")

	retained := func(name string) bool {
		cs.mu.Lock()
		defer cs.mu.Unlock()
		_, ok := cs.entries[columnKey{name, ColumnWeighted}]
		return ok
	}
	for i := 0; i < 3; i++ {
		if _, hit := put(cs, fmt.Sprint("c", i), n); hit {
			t.Fatalf("first fetch of c%d hit", i)
		}
	}
	if cs.bytes != 3*one || evictions.Value() != 0 {
		t.Fatalf("three columns inside the budget: %d bytes, %d evictions", cs.bytes, evictions.Value())
	}
	// Touch c0 so c1 is the least recently used, then overflow twice.
	if _, hit := put(cs, "c0", n); !hit {
		t.Fatal("refetch of c0 missed")
	}
	put(cs, "c3", n)
	if retained("c1") || !retained("c0") || !retained("c2") || !retained("c3") {
		t.Fatalf("after c3: retained c0=%v c1=%v c2=%v c3=%v, want c1 evicted",
			retained("c0"), retained("c1"), retained("c2"), retained("c3"))
	}
	put(cs, "c4", n)
	if retained("c2") || !retained("c0") {
		t.Fatalf("after c4: retained c0=%v c2=%v, want c2 evicted before the touched c0", retained("c0"), retained("c2"))
	}
	if cs.bytes > cs.budget || cs.lru.Len() != 3 || evictions.Value() != 2 {
		t.Fatalf("%d bytes of %d in %d columns after %d evictions", cs.bytes, cs.budget, cs.lru.Len(), evictions.Value())
	}

	// A column over the whole budget: returned, not stored, nothing evicted
	// for it; the next fetch of its key builds again.
	big, hit := put(cs, "big", 4*n)
	if hit || len(big.Scores) != 4*n {
		t.Fatalf("over-budget column: hit=%v with %d scores", hit, len(big.Scores))
	}
	if retained("big") || cs.bytes != 3*one || evictions.Value() != 2 {
		t.Fatalf("over-budget column changed the store: retained=%v bytes=%d evictions=%d",
			retained("big"), cs.bytes, evictions.Value())
	}
	if _, hit := put(cs, "big", 4*n); hit {
		t.Fatal("over-budget column was retained")
	}

	// A successor starts a new generation with nothing retained; dropping a
	// non-empty store is one counted invalidation, dropping an empty one none.
	v := &Version{w: cs.w, cols: cs}
	next := v.successor(nil, 0, 1)
	if st := next.ColumnStats(); st.Bytes != 0 || st.Entries != 0 || next.cols.len() != 0 || st.Generation != 1 {
		t.Fatalf("successor: %+v with %d entries", st, next.cols.len())
	}
	if got := reg.Counter("tasti_proxy_column_invalidations_total").Value(); got != 1 {
		t.Fatalf("%d invalidations counted, want 1", got)
	}
	if after := next.successor(nil, 0, 1); reg.Counter("tasti_proxy_column_invalidations_total").Value() != 1 || after.gen != 2 {
		t.Fatalf("empty successor: %d invalidations, generation %d",
			reg.Counter("tasti_proxy_column_invalidations_total").Value(), after.gen)
	}
}

// TestColumnExactValues pins the exact-score cells: unknown until set, every
// float64 but the reserved pattern round-trips bit for bit — the values whose
// bits or comparisons are easiest to get wrong included — and the reserved
// pattern itself is never reported as known.
func TestColumnExactValues(t *testing.T) {
	col := &Column{Scores: make([]float64, 16)}
	for id := range col.Scores {
		if v, known := col.Value(id); known {
			t.Fatalf("fresh column: Value(%d) = %v, known", id, v)
		}
	}
	otherNaN := math.Float64frombits(unknownValue ^ 1)
	values := []float64{0, math.Copysign(0, -1), 1, -2.5, math.Inf(1), math.Inf(-1), math.NaN(), otherNaN,
		math.SmallestNonzeroFloat64, math.MaxFloat64}
	for id, want := range values {
		col.SetValue(id, want)
		got, known := col.Value(id)
		if !known || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("SetValue(%d, %v [%#x]) reads back %v [%#x], known=%v", id, want, math.Float64bits(want), got, math.Float64bits(got), known)
		}
	}
	if v, known := col.Value(len(values)); known {
		t.Errorf("a cell beside the written ones reads %v, known", v)
	}
	// The reserved pattern is a value no cell can hold: setting it leaves the
	// cell unknown, over a fresh cell and over a known one.
	reserved := math.Float64frombits(unknownValue)
	if !math.IsNaN(reserved) {
		t.Fatalf("the reserved pattern %#x is the number %v", uint64(unknownValue), reserved)
	}
	for _, id := range []int{0, len(values)} {
		col.SetValue(id, reserved)
		if v, known := col.Value(id); known {
			t.Errorf("the reserved pattern set on cell %d reads back as the known value %v", id, v)
		}
	}
}

// TestColumnExactValuesConcurrent has 8 goroutines record and read the same
// cells of one column with nothing between them — the first of them
// allocating the vector under the others — the way concurrent requests over
// one pinned column do. Every writer of a cell writes the same bits, so a
// reader sees a cell unknown or right, never anything else. Run under -race.
func TestColumnExactValuesConcurrent(t *testing.T) {
	const n, workers = 512, 8
	col := &Column{Scores: make([]float64, n)}
	exact := func(id int) float64 { return float64(id%7) - 0.5 }
	var wg sync.WaitGroup
	errs := make(chan error, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for pass := 0; pass < 4; pass++ {
				for i := 0; i < n; i++ {
					id := (i*(2*g+1) + pass) % n
					if v, known := col.Value(id); known && v != exact(id) {
						errs <- fmt.Errorf("goroutine %d: Value(%d) = %v, want %v", g, id, v, exact(id))
						return
					}
					col.SetValue(id, exact(id))
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for id := 0; id < n; id++ {
		if v, known := col.Value(id); !known || v != exact(id) {
			t.Fatalf("after every goroutine set it: Value(%d) = %v, %v", id, v, known)
		}
	}
}
