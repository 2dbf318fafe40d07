package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
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
	const n = 100 // a 100-record weighted column is charged 3608 bytes
	one := (&Column{Scores: make([]float64, n)}).bytes()
	reg := telemetry.NewRegistry()
	cs := newColumnStore(3*one, wiring{tel: reg}.resolved())
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
	next := v.successor(1)
	if st := next.ColumnStats(); st.Bytes != 0 || st.Entries != 0 || next.cols.len() != 0 || st.Generation != 1 {
		t.Fatalf("successor: %+v with %d entries", st, next.cols.len())
	}
	if got := reg.Counter("tasti_proxy_column_invalidations_total").Value(); got != 1 {
		t.Fatalf("%d invalidations counted, want 1", got)
	}
	if after := next.successor(1); reg.Counter("tasti_proxy_column_invalidations_total").Value() != 1 || after.gen != 2 {
		t.Fatalf("empty successor: %d invalidations, generation %d",
			reg.Counter("tasti_proxy_column_invalidations_total").Value(), after.gen)
	}
}

// TestWeightedColumnCharge: the store charges a weighted column, before any of
// it exists, for everything a request can make it build — the design's prefix
// sums and guide table, the sorted copy of the scores the first select's
// count makes, and the exact scores. Once all of it is built, the live heap
// it takes fits inside the charge less the scores, up to the page rounding of
// the large allocations and a few headers.
func TestWeightedColumnCharge(t *testing.T) {
	const n, slack = 1 << 17, 32 << 10
	scores := make([]float64, n)
	for i := range scores {
		scores[i] = float64(i%1000) / 1000
	}
	col := &Column{Kind: ColumnWeighted, Scores: scores}
	if got, want := col.bytes(), int64(4*8*n+4*(n+2)); got != want {
		t.Fatalf("weighted column of %d records charged %d bytes, want %d", n, got, want)
	}
	if got, want := (&Column{Kind: ColumnNearest, Scores: scores}).bytes(), int64(5*8*n); got != want {
		t.Fatalf("nearest column of %d records charged %d bytes, want %d", n, got, want)
	}
	live := func() int64 {
		runtime.GC()
		runtime.GC() // the second empties sync.Pool's victim cache
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return int64(m.HeapAlloc)
	}
	before := live()
	sel, err := col.Design().RecallTargetSelection(supg.Options{Budget: 100, Target: 0.9, Delta: 0.05, Seed: 1},
		supg.MatchFunc(func(id int) (bool, error) { return scores[id] > 0.9, nil }))
	if err != nil || sel.Len() == 0 {
		t.Fatalf("select over the column: %d records (%v)", sel.Len(), err)
	}
	col.setValue(0, 1)
	built := live() - before
	if charged := col.bytes() - 8*n; built > charged+slack {
		t.Errorf("a weighted column's derived vectors hold %d bytes, charged %d beside its scores", built, charged)
	}
	runtime.KeepAlive(col)
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
		col.setValue(id, want)
		got, known := col.Value(id)
		if !known || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("setValue(%d, %v [%#x]) reads back %v [%#x], known=%v", id, want, math.Float64bits(want), got, math.Float64bits(got), known)
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
		col.setValue(id, reserved)
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
					col.setValue(id, exact(id))
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

// TestColumnScanPrefixShared has readers of one nearest column scan it at
// once, each to its own depth — one of them to the end — and requires every
// sequence to be limitq.Order's: the readers share one prefix, popped from the
// column's heaps under its mutex and read lock-free. Half way through the
// exhausting scan a CrackAll publishes a new version; the readers hold the
// pin taken before it and must keep its order to the end, while the new
// version's column has its own. The finished prefix holds every record's ID,
// inside the bytes the store charges the column. Run under -race.
func TestColumnScanPrefixShared(t *testing.T) {
	const n, reps = 1500, 60
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := core.Build(core.PretrainedConfig(reps, 2), ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
	if err != nil {
		t.Fatal(err)
	}
	x, err := Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	sc := Scorer{Name: "count/car", Score: core.CountScore("car")}
	col, _, err := x.Pin().Column(sc, ColumnNearest)
	if err != nil {
		t.Fatal(err)
	}
	want := limitq.Order(col.Scores, col.Dists)

	// read takes depth IDs from a fresh cursor, calling pause, when non-nil,
	// half way.
	read := func(depth int, pause func()) error {
		cur, _ := col.Cursor()
		for i := 0; i < depth; i++ {
			if i == depth/2 && pause != nil {
				pause()
			}
			if id, ok := cur.Next(); !ok || id != want[i] {
				return fmt.Errorf("depth %d: ID %d is %d (ok=%v), want %d", depth, i, id, ok, want[i])
			}
		}
		if id, ok := cur.Next(); depth == n && ok {
			return fmt.Errorf("exhausted cursor yielded %d", id)
		}
		return nil
	}
	// The exhausting reader signals half (once, or on failing before it) and
	// waits for the crack to be published before reading on.
	half, cracked := make(chan struct{}), make(chan struct{})
	var halfOnce sync.Once
	reachedHalf := func() { halfOnce.Do(func() { close(half) }) }
	depths := []int{1, 24, 63, 64, 65, 130, 700, n}
	errs := make(chan error, len(depths))
	var wg sync.WaitGroup
	for _, depth := range depths {
		wg.Add(1)
		go func(depth int) {
			defer wg.Done()
			if depth == n {
				defer reachedHalf()
				errs <- read(depth, func() { reachedHalf(); <-cracked })
			} else {
				errs <- read(depth, nil)
			}
		}(depth)
	}
	<-half
	promote := map[int]dataset.Annotation{}
	for id := 0; len(promote) < 5; id++ {
		if !x.Annotated(id) {
			promote[id] = ds.Truth[id]
		}
	}
	if x.CrackAll(promote) == 0 {
		t.Fatal("the crack promoted nothing")
	}
	close(cracked)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Error(err)
		}
	}

	next, hit, err := x.Pin().Column(sc, ColumnNearest)
	if err != nil || hit || next == col {
		t.Fatalf("column after the crack: hit=%v same=%v err=%v", hit, next == col, err)
	}
	cur, _ := next.Cursor()
	var got []int
	for id, ok := cur.Next(); ok; id, ok = cur.Next() {
		got = append(got, id)
	}
	if !slices.Equal(got, limitq.Order(next.Scores, next.Dists)) {
		t.Error("the new version's column does not scan in its own order")
	}
	if err := read(n, nil); err != nil {
		t.Errorf("the old pin after the crack: %v", err)
	}

	prefix := *col.prefix.Load()
	if !slices.Equal(prefix, want) {
		t.Fatalf("exhausted prefix holds %d IDs, not the scan order", len(prefix))
	}
	// Scores, distances, heap IDs, prefix capacity and exact scores.
	held := 8 * int64(len(col.Scores)+len(col.Dists)+n+cap(prefix)+n)
	if col.bytes() < held {
		t.Errorf("column charged %d bytes, holds up to %d", col.bytes(), held)
	}
}
