package shard

import (
	"fmt"
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
	const n = 100 // a 100-record column is charged 2400 bytes
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
