package store

import (
	"bytes"
	"context"
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/query/aggregation"
	"repro/internal/telemetry"
)

// tagged is an annotation that names who wrote it.
func tagged(writer, id int) dataset.Annotation {
	return dataset.SpeechAnnotation{Gender: "w", AgeYears: writer*1_000_000 + id}
}

// withMutexHeld runs fn while the test holds the store's mutex, failing if fn
// has not returned in a second — which is what taking the mutex would do.
func withMutexHeld(t *testing.T, s *Store, what string, fn func()) {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		fn()
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatalf("%s blocked on the store mutex", what)
	}
}

// TestReadIndexFirstWriterWins races Put, Warm and the bound labeler's leader
// publish over the same IDs, each writer offering its own annotation, with
// readers polling the lock-free index throughout. An ID's annotation, once
// visible, never changes; and when the dust settles Get and Annotations
// agree on every ID — the first writer won everywhere at once.
func TestReadIndexFirstWriterWins(t *testing.T) {
	const ids = 3*pageSize + 17 // several pages, the last partly filled
	s := New(Options{})
	stop := make(chan struct{})
	var readers, writers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			seen := make(map[int]dataset.Annotation)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for id := 0; id < ids; id += 7 {
					ann, ok := s.Get(id)
					if !ok {
						continue
					}
					if prev, had := seen[id]; had && prev != ann {
						t.Errorf("record %d read as %v, then as %v", id, prev, ann)
						return
					}
					seen[id] = ann
				}
			}
		}()
	}
	writers.Add(3)
	go func() { // Put, ascending
		defer writers.Done()
		for id := 0; id < ids; id++ {
			s.Put(id, tagged(1, id))
		}
	}()
	go func() { // Warm, in descending chunks
		defer writers.Done()
		for hi := ids; hi > 0; hi -= 100 {
			batch := map[int]dataset.Annotation{}
			for id := max(hi-100, 0); id < hi; id++ {
				batch[id] = tagged(2, id)
			}
			s.Warm(batch)
		}
	}()
	go func() { // leader publish through the bound labeler
		defer writers.Done()
		lab := s.Bind(&oracleN{n: ids}, nil, "", nil)
		for id := 0; id < ids; id += 3 {
			if _, err := lab.Label(id); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	writers.Wait()
	close(stop)
	readers.Wait()

	if s.Len() != ids {
		t.Fatalf("%d entries, want %d", s.Len(), ids)
	}
	held := s.Annotations()
	if len(held) != ids {
		t.Fatalf("Annotations holds %d entries, want %d", len(held), ids)
	}
	for id := 0; id < ids; id++ {
		if got, ok := s.Get(id); !ok || got != held[id] {
			t.Fatalf("record %d: Get %v (%v), Annotations %v", id, got, ok, held[id])
		}
	}
}

// TestReadIndexServesLoadedSnapshot: a store restored from a snapshot answers
// known labels — through Get and through a bound labeler — without its mutex,
// exactly like one that bought them itself.
func TestReadIndexServesLoadedSnapshot(t *testing.T) {
	src := New(Options{Corpus: testCorpus})
	for id := 0; id < 2*pageSize; id += 3 {
		src.Put(id, tagged(1, id))
	}
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s, err := Load(&buf, Options{Telemetry: reg, Corpus: testCorpus})
	if err != nil {
		t.Fatal(err)
	}
	if s.Dirty() != 0 || s.Len() != src.Len() {
		t.Fatalf("loaded store: %d entries (%d dirty), saved %d", s.Len(), s.Dirty(), src.Len())
	}
	inner := &oracleN{n: 2 * pageSize}
	lab := s.Bind(inner, nil, "", nil)
	withMutexHeld(t, s, "a known label", func() {
		for id := 0; id < 2*pageSize; id += 3 {
			if ann, ok := s.Get(id); !ok || ann != tagged(1, id) {
				t.Errorf("Get(%d) = %v, %v", id, ann, ok)
			}
			if ann, err := lab.Label(id); err != nil || ann != tagged(1, id) {
				t.Errorf("Label(%d) = %v, %v", id, ann, err)
			}
		}
		if _, ok := s.Get(1); ok { // a miss inside the dense range is lock-free too
			t.Error("Get(1) found an annotation nobody stored")
		}
	})
	if inner.Calls() != 0 {
		t.Fatalf("%d oracle calls for labels the snapshot held", inner.Calls())
	}
	if got, want := reg.Counter("tasti_labelstore_hits_total").Value(), int64((2*pageSize+2)/3); got != want {
		t.Fatalf("%d hits counted, want %d", got, want)
	}
}

// TestReadIndexSparseIDs: IDs outside [0, denseLimit) — negative, or at and
// past the limit — are never cached. Put and Warm drop them, a bound labeler
// sends every request for one to the oracle, and a snapshot never holds one;
// the last ID inside the range is cached like any other.
func TestReadIndexSparseIDs(t *testing.T) {
	sparse := []int{-1, math.MinInt64, denseLimit, denseLimit + 5, math.MaxInt64}
	s := New(Options{Corpus: testCorpus})
	for i, id := range sparse {
		s.Put(id, tagged(9, i))
		s.Warm(map[int]dataset.Annotation{id: tagged(9, i)})
	}
	last := denseLimit - 1
	s.Put(last, tagged(9, 99))
	if ann, ok := s.Get(last); !ok || ann != tagged(9, 99) {
		t.Fatalf("Get(%d) = %v, %v: the last ID inside the range is not cached", last, ann, ok)
	}
	for _, id := range sparse {
		if ann, ok := s.Get(id); ok {
			t.Errorf("Get(%d) = %v: an ID outside the range was cached", id, ann)
		}
	}
	if s.Len() != 1 || s.Dirty() != 1 {
		t.Fatalf("Len=%d Dirty=%d, want 1/1", s.Len(), s.Dirty())
	}

	inner := &oracleN{n: math.MaxInt}
	lab := s.Bind(inner, nil, "", func(int) (dataset.Annotation, bool) {
		return tagged(9, 0), true // a lookup never caches them either
	})
	for _, id := range []int{denseLimit, denseLimit + 5} {
		for range 2 {
			if _, err := lab.Label(id); err != nil {
				t.Fatal(err)
			}
		}
	}
	if inner.Calls() != 4 {
		t.Fatalf("%d oracle calls for two uncached records labeled twice, want 4", inner.Calls())
	}
	if _, err := lab.Label(-1); err == nil {
		t.Fatal("a negative ID labeled")
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf, Options{Corpus: testCorpus})
	if err != nil {
		t.Fatal(err)
	}
	if got := loaded.Annotations(); len(got) != 1 || got[last] != tagged(9, 99) {
		t.Fatalf("snapshot round trip holds %v", got)
	}
}

// cancelAfter cancels a context once n labels have been drawn through it.
type cancelAfter struct {
	labeler.Labeler
	n, drawn int
	cancel   context.CancelFunc
}

func (c *cancelAfter) Label(id int) (dataset.Annotation, error) {
	ann, err := c.Labeler.Label(id)
	if c.drawn++; c.drawn == c.n {
		c.cancel()
	}
	return ann, err
}

// TestCanceledQueryStopsDrawingHits: labeler.WithContext checks its context
// on every Label call, so a canceled query stops at its next draw even when
// every draw is a store hit — the bound labeler's known-label path returns
// without ever looking at a context. With a 100 % hit rate the aggregate
// would otherwise sample on, unstoppably, to its error target.
func TestCanceledQueryStopsDrawingHits(t *testing.T) {
	const n, cancelAt = 2000, 150
	s := New(Options{})
	for id := 0; id < n; id++ {
		s.Put(id, dataset.SpeechAnnotation{Gender: "female", AgeYears: id % 90})
	}
	inner := &oracleN{n: n}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	lab := &cancelAfter{Labeler: labeler.WithContext(ctx, s.Bind(inner, nil, "", nil)), n: cancelAt, cancel: cancel}
	age := func(ann dataset.Annotation) float64 { return float64(ann.(dataset.SpeechAnnotation).AgeYears) }
	// An error target this tight needs every record; the sampler is nowhere
	// near done at draw 150.
	_, err := aggregation.Estimate(aggregation.Options{ErrTarget: 1e-9, Delta: 0.05, MinSamples: 100, Seed: 5}, n, nil, age, lab)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Estimate over a canceled context returned %v, want context.Canceled", err)
	}
	// The context was canceled as draw cancelAt returned; the very next draw
	// is refused.
	if lab.drawn != cancelAt+1 {
		t.Fatalf("%d draws, want the sampler stopped at draw %d", lab.drawn, cancelAt+1)
	}
	if inner.Calls() != 0 {
		t.Fatalf("%d oracle calls over an all-hit store", inner.Calls())
	}
}
