package store

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
)

// blockingLabeler answers Label only after release is closed, counting every
// invocation — the probe for singleflight coalescing.
type blockingLabeler struct {
	release chan struct{}
	fail    error

	mu    sync.Mutex
	calls int
}

func (b *blockingLabeler) Label(id int) (dataset.Annotation, error) {
	b.mu.Lock()
	b.calls++
	b.mu.Unlock()
	<-b.release
	if b.fail != nil {
		return nil, b.fail
	}
	return dataset.VideoAnnotation{Boxes: []dataset.Box{{Class: fmt.Sprintf("rec-%d", id)}}}, nil
}

func (b *blockingLabeler) Name() string            { return "blocking" }
func (b *blockingLabeler) Cost() labeler.CostModel { return labeler.CostModel{} }
func (b *blockingLabeler) Calls() int              { b.mu.Lock(); defer b.mu.Unlock(); return b.calls }

// oracleN is an immediate labeler over n synthetic records.
type oracleN struct {
	n int

	mu    sync.Mutex
	calls int
}

func (o *oracleN) Label(id int) (dataset.Annotation, error) {
	if id < 0 || id >= o.n {
		return nil, fmt.Errorf("record %d out of range", id)
	}
	o.mu.Lock()
	o.calls++
	o.mu.Unlock()
	return dataset.SpeechAnnotation{Gender: "female", AgeYears: id}, nil
}

func (o *oracleN) Name() string            { return "oracle-n" }
func (o *oracleN) Cost() labeler.CostModel { return labeler.CostModel{} }
func (o *oracleN) Calls() int              { o.mu.Lock(); defer o.mu.Unlock(); return o.calls }

func TestStoreHitAfterMiss(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Telemetry: reg})
	inner := &oracleN{n: 10}
	lab := s.Bind(inner, nil, "", nil)

	a1, err := lab.Label(3)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := lab.Label(3)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Fatalf("hit returned a different annotation: %v vs %v", a1, a2)
	}
	if inner.Calls() != 1 {
		t.Fatalf("oracle called %d times for one record", inner.Calls())
	}
	if got := reg.Counter("tasti_labelstore_hits_total").Value(); got != 1 {
		t.Fatalf("hits counter = %d, want 1", got)
	}
	if got := reg.Counter("tasti_labelstore_misses_total").Value(); got != 1 {
		t.Fatalf("misses counter = %d, want 1", got)
	}
	if s.Len() != 1 || s.Dirty() != 1 {
		t.Fatalf("Len=%d Dirty=%d, want 1/1", s.Len(), s.Dirty())
	}
}

// TestStoreAvoidsRepeatCalls: labeling one record ten times through a bound
// oracle costs one oracle call, and the store holds only that record.
func TestStoreAvoidsRepeatCalls(t *testing.T) {
	ds, err := dataset.Generate("night-street", 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	counting := labeler.NewCounting(labeler.NewOracle(ds, "o", labeler.MaskRCNNCost))
	s := New(Options{})
	lab := s.Bind(counting, nil, "", nil)
	var first dataset.Annotation
	for i := 0; i < 10; i++ {
		ann, err := lab.Label(5)
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = ann
		}
	}
	if counting.Calls() != 1 {
		t.Errorf("inner calls = %d, want 1", counting.Calls())
	}
	got := s.Annotations()
	if len(got) != 1 || !reflect.DeepEqual(got[5], first) {
		t.Errorf("Annotations = %v, want only record 5", got)
	}
}

// TestStoreWarmServesForFree: warmed annotations — another store's — are
// hits, and only a record outside them reaches the oracle.
func TestStoreWarmServesForFree(t *testing.T) {
	s := New(Options{})
	inner := &oracleN{n: 10}
	s.Warm(map[int]dataset.Annotation{3: dataset.TextAnnotation{Operator: "MIN"}, 4: dataset.TextAnnotation{Operator: "MAX"}})
	lab := s.Bind(inner, nil, "", nil)
	for _, id := range []int{3, 4} {
		if _, err := lab.Label(id); err != nil {
			t.Fatal(err)
		}
	}
	if inner.Calls() != 0 {
		t.Fatalf("warmed entries hit the oracle: %d calls", inner.Calls())
	}
	if _, err := lab.Label(5); err != nil {
		t.Fatal(err)
	}
	if inner.Calls() != 1 {
		t.Fatalf("calls = %d, want 1", inner.Calls())
	}
}

// TestResolveReportsSource: Resolve names where each label came from — the
// store, the lookup, another caller's in-flight call, or the oracle — and
// counts the misses and coalesced waiters but leaves hits to its caller.
func TestResolveReportsSource(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Telemetry: reg})
	inner := &blockingLabeler{release: make(chan struct{})}
	owned := map[int]dataset.Annotation{4: dataset.TextAnnotation{Operator: "MAX"}}
	b := s.Bind(inner, nil, "", func(id int) (dataset.Annotation, bool) {
		ann, ok := owned[id]
		return ann, ok
	})
	ctx := context.Background()
	resolve := func(id int) Source {
		t.Helper()
		_, src, err := b.Resolve(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		return src
	}

	if src := resolve(4); src != FromIndex || !src.Hit() {
		t.Fatalf("an index-owned record resolved from %d", src)
	}
	if src := resolve(4); src != FromStore || !src.Hit() {
		t.Fatalf("a promoted record resolved from %d", src)
	}
	led := make(chan Source)
	go func() { led <- resolve(7) }()
	for inner.Calls() == 0 {
	}
	joined := make(chan Source)
	go func() { joined <- resolve(7) }()
	for reg.Counter("tasti_labelstore_coalesced_total").Value() == 0 {
	}
	close(inner.release)
	if src := <-led; src != FromOracle || src.Hit() {
		t.Fatalf("the leader resolved from %d", src)
	}
	if src := <-joined; src != FromInflight || src.Hit() {
		t.Fatalf("the waiter resolved from %d", src)
	}
	if got := reg.Counter("tasti_labelstore_hits_total").Value(); got != 0 {
		t.Fatalf("Resolve counted %d hits", got)
	}
	if got := reg.Counter("tasti_labelstore_misses_total").Value(); got != 1 {
		t.Fatalf("misses = %d, want 1", got)
	}
}

// TestStoreSingleflightCoalesces races many goroutines toward one unlabeled
// record and requires exactly one oracle call, every waiter sharing its
// result.
func TestStoreSingleflightCoalesces(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Telemetry: reg})
	inner := &blockingLabeler{release: make(chan struct{})}
	lab := s.Bind(inner, nil, "", nil)

	const workers = 16
	var wg sync.WaitGroup
	anns := make([]dataset.Annotation, workers)
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			anns[i], errs[i] = lab.Label(7)
		}(i)
	}
	// Wait until the leader has reached the oracle, then let everyone in a
	// moment to pile onto the in-flight call before releasing it.
	for inner.Calls() == 0 {
	}
	close(inner.release)
	wg.Wait()

	if got := inner.Calls(); got != 1 {
		t.Fatalf("oracle called %d times under coalescing, want 1", got)
	}
	for i := 0; i < workers; i++ {
		if errs[i] != nil {
			t.Fatalf("worker %d: %v", i, errs[i])
		}
		if !reflect.DeepEqual(anns[i], anns[0]) {
			t.Fatalf("worker %d got a different annotation", i)
		}
	}
	hits := reg.Counter("tasti_labelstore_hits_total").Value()
	coalesced := reg.Counter("tasti_labelstore_coalesced_total").Value()
	misses := reg.Counter("tasti_labelstore_misses_total").Value()
	if misses != 1 {
		t.Fatalf("misses = %d, want 1", misses)
	}
	// Every non-leader either coalesced onto the in-flight call or arrived
	// after it resolved and hit the store.
	if hits+coalesced != workers-1 {
		t.Fatalf("hits(%d) + coalesced(%d) != %d", hits, coalesced, workers-1)
	}
}

// TestStoreWaitersShareTypedError requires a failing leader call to hand
// every coalesced waiter the same typed error, store nothing, and leave the
// next request free to retry.
func TestStoreWaitersShareTypedError(t *testing.T) {
	s := New(Options{})
	boom := fmt.Errorf("tier down: %w", labeler.ErrPermanent)
	inner := &blockingLabeler{release: make(chan struct{}), fail: boom}
	lab := s.Bind(inner, nil, "", nil)

	const workers = 8
	var wg sync.WaitGroup
	errs := make([]error, workers)
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = lab.Label(5)
		}(i)
	}
	for inner.Calls() == 0 {
	}
	close(inner.release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, labeler.ErrPermanent) {
			t.Fatalf("worker %d: err = %v, want the leader's typed error", i, err)
		}
	}
	if s.Len() != 0 {
		t.Fatalf("failed call stored an annotation")
	}
	// The failure is not cached: a later call retries the oracle.
	inner2 := &oracleN{n: 10}
	if _, err := s.Bind(inner2, nil, "", nil).Label(5); err != nil {
		t.Fatalf("retry after failure: %v", err)
	}
	if inner2.Calls() != 1 {
		t.Fatalf("retry did not reach the oracle")
	}
}

// TestStoreSaturationTypedError fills the in-flight table and requires the
// next distinct-record miss to fail fast with ErrSaturated.
func TestStoreSaturationTypedError(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{MaxInflight: 1, Telemetry: reg})
	inner := &blockingLabeler{release: make(chan struct{})}
	lab := s.Bind(inner, nil, "", nil)

	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := lab.Label(1); err != nil {
			t.Errorf("leader: %v", err)
		}
	}()
	for inner.Calls() == 0 {
	}
	_, err := lab.Label(2)
	if !errors.Is(err, ErrSaturated) {
		t.Fatalf("err = %v, want ErrSaturated", err)
	}
	if got := reg.Counter("tasti_labelstore_saturated_total").Value(); got != 1 {
		t.Fatalf("saturated counter = %d, want 1", got)
	}
	close(inner.release)
	<-done
	// With the table drained the same record labels fine.
	if _, err := lab.Label(2); err != nil {
		t.Fatalf("after drain: %v", err)
	}
}

// TestStoreBuildBindingSkipsBackpressureAndQueryCounts: a build binding is
// never answered ErrSaturated, even with more records in flight than the
// store's cap, and counts no hits, misses, coalesced waiters or saturation —
// those series are the queries'. Its labels land in the store and its entry
// gauge, and a query binding finds them as hits.
func TestStoreBuildBindingSkipsBackpressureAndQueryCounts(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{MaxInflight: 1, Telemetry: reg})
	inner := &blockingLabeler{release: make(chan struct{})}
	build := s.BindBuild(inner)

	const n = 4
	var wg sync.WaitGroup
	for id := range n {
		wg.Add(2)
		for range 2 { // two workers per record: one leads, one coalesces
			go func() {
				defer wg.Done()
				if _, err := build.Label(id); err != nil {
					t.Errorf("build label %d: %v", id, err)
				}
			}()
		}
	}
	for deadline := time.Now().Add(5 * time.Second); inner.Calls() < n; {
		if time.Now().After(deadline) {
			close(inner.release)
			wg.Wait()
			t.Fatalf("%d of %d records reached the labeler: the build binding was refused", inner.Calls(), n)
		}
	}
	close(inner.release)
	wg.Wait()
	if _, err := build.Label(0); err != nil { // a hit
		t.Fatal(err)
	}
	for _, name := range []string{
		"tasti_labelstore_hits_total", "tasti_labelstore_misses_total",
		"tasti_labelstore_coalesced_total", "tasti_labelstore_saturated_total",
	} {
		if got := reg.Counter(name).Value(); got != 0 {
			t.Errorf("%s = %d after a build, want 0", name, got)
		}
	}
	if got := reg.Gauge("tasti_labelstore_entries").Value(); got != n {
		t.Errorf("entries = %v, want %d", got, n)
	}
	if _, err := s.Bind(inner, nil, "", nil).Label(1); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter("tasti_labelstore_hits_total").Value(); got != 1 {
		t.Errorf("a query on a build label counted %d hits, want 1", got)
	}
}

// TestStoreLookupPromotesFreeAnnotations requires a lookup (index) hit to
// cost neither budget nor an oracle call, and to be promoted into the store.
func TestStoreLookupPromotesFreeAnnotations(t *testing.T) {
	reg := telemetry.NewRegistry()
	s := New(Options{Telemetry: reg})
	inner := &oracleN{n: 10}
	budget := NewBudget(BudgetConfig{Global: 1})
	owned := map[int]dataset.Annotation{4: dataset.TextAnnotation{Operator: "MAX"}}
	lab := s.Bind(inner, budget, "t1", func(id int) (dataset.Annotation, bool) {
		ann, ok := owned[id]
		return ann, ok
	})

	ann, err := lab.Label(4)
	if err != nil {
		t.Fatal(err)
	}
	if ann != owned[4] {
		t.Fatalf("lookup hit returned %v", ann)
	}
	if inner.Calls() != 0 {
		t.Fatalf("lookup hit reached the oracle")
	}
	if _, g := budget.Remaining("t1"); g != 1 {
		t.Fatalf("lookup hit spent budget: global remaining %d", g)
	}
	if _, ok := s.Get(4); !ok {
		t.Fatalf("lookup hit was not promoted into the store")
	}
}

// TestStoreContextCancelUnblocksWaiter cancels a coalesced waiter while the
// leader is stuck and requires the waiter to return the context error.
func TestStoreContextCancelUnblocksWaiter(t *testing.T) {
	s := New(Options{})
	inner := &blockingLabeler{release: make(chan struct{})}
	lab := s.Bind(inner, nil, "", nil)

	go lab.Label(9) //nolint:errcheck // leader parks on the blocked oracle
	for inner.Calls() == 0 {
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := lab.LabelContext(ctx, 9); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter: err = %v", err)
	}
	close(inner.release)
}
