package store

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// testCorpus is the corpus the test stores' labels belong to.
var testCorpus = Corpus{Dataset: "night-street", Size: 120, Seed: 1}

// sampleStore returns a store holding one annotation of every schema the
// repository knows, so the round trip exercises the full gob registry.
func sampleStore() *Store {
	s := New(Options{Corpus: testCorpus})
	s.Put(3, dataset.VideoAnnotation{Boxes: []dataset.Box{
		{Class: "car", X: 0.2, Y: 0.4, W: 0.1, H: 0.05},
		{Class: "bus", X: 0.7, Y: 0.1, W: 0.2, H: 0.12},
	}})
	s.Put(11, dataset.TextAnnotation{Operator: "COUNT", NumPredicates: 2})
	s.Put(42, dataset.SpeechAnnotation{Gender: "male", AgeYears: 34})
	return s
}

func TestLabelStoreSnapshotRoundTrip(t *testing.T) {
	src := sampleStore()
	var buf bytes.Buffer
	if err := src.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), Options{Corpus: testCorpus})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Annotations(), src.Annotations()) {
		t.Fatalf("round trip changed annotations:\n got %v\nwant %v", got.Annotations(), src.Annotations())
	}
	// A loaded store starts clean: everything in it is already durable.
	if got.Dirty() != 0 {
		t.Fatalf("loaded store dirty = %d, want 0", got.Dirty())
	}
}

// loadTyped requires Load to fail with a typed snapshot error on damaged
// bytes — never a panic, untyped error, or silent acceptance.
func loadTyped(t *testing.T, data []byte, what string) {
	t.Helper()
	_, err := Load(bytes.NewReader(data), Options{Corpus: testCorpus})
	if err == nil {
		t.Fatalf("%s: damaged store loaded successfully", what)
	}
	for _, typed := range []error{
		snapshot.ErrBadMagic, snapshot.ErrKind, snapshot.ErrVersion,
		snapshot.ErrChecksum, snapshot.ErrTruncated, snapshot.ErrFrameTooLarge,
	} {
		if errors.Is(err, typed) {
			return
		}
	}
	t.Fatalf("%s: untyped error %v", what, err)
}

// loadFile restores a flushed store file into a new store.
func loadFile(path string) (*Store, error) {
	s := New(Options{Corpus: testCorpus})
	return s, snapshot.ReadFile(path, s.Restore)
}

// writeRaw frames anns as a label-store snapshot without going through a
// Store, which would refuse to hold some of them.
func writeRaw(t *testing.T, anns map[int]dataset.Annotation) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := save(&buf, testCorpus, anns); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestLabelStoreLoadRejectsOutOfRangeID: a snapshot whose CRCs all verify
// but which holds a record ID the store never caches is malformed input.
// Load refuses it, and Restore leaves the store it was reading into as it
// was.
func TestLabelStoreLoadRejectsOutOfRangeID(t *testing.T) {
	for _, id := range []int{-1, denseLimit} {
		data := writeRaw(t, map[int]dataset.Annotation{
			2:  dataset.TextAnnotation{Operator: "SUM"},
			id: dataset.TextAnnotation{Operator: "AVG"},
		})
		if _, err := Load(bytes.NewReader(data), Options{Corpus: testCorpus}); err == nil {
			t.Fatalf("a snapshot holding record %d loaded", id)
		}
		s := sampleStore()
		want := s.Annotations()
		if err := s.Restore(bytes.NewReader(data)); err == nil {
			t.Fatalf("a snapshot holding record %d restored", id)
		}
		if got := s.Annotations(); !reflect.DeepEqual(got, want) {
			t.Fatalf("a rejected restore changed the store: %v, want %v", got, want)
		}
	}
}

// TestLabelStoreRestoreRejectsOtherCorpus: a snapshot's labels are
// annotations of its corpus's records. One that names another corpus — a
// different generator argument — or none, as every file from before the
// corpus was recorded, fails with ErrCorpus, and the store stays as it was.
func TestLabelStoreRestoreRejectsOtherCorpus(t *testing.T) {
	anns := map[int]dataset.Annotation{5: dataset.TextAnnotation{Operator: "SUM"}}
	for _, corpus := range []Corpus{
		{},
		{Dataset: "taipei", Size: testCorpus.Size, Seed: testCorpus.Seed},
		{Dataset: testCorpus.Dataset, Size: 121, Seed: testCorpus.Seed},
		{Dataset: testCorpus.Dataset, Size: testCorpus.Size, Seed: 2},
	} {
		var buf bytes.Buffer
		if err := save(&buf, corpus, anns); err != nil {
			t.Fatal(err)
		}
		if _, err := Load(bytes.NewReader(buf.Bytes()), Options{Corpus: testCorpus}); !errors.Is(err, ErrCorpus) {
			t.Fatalf("%+v: Load err = %v, want ErrCorpus", corpus, err)
		}
		s := sampleStore()
		want := s.Annotations()
		if err := s.Restore(bytes.NewReader(buf.Bytes())); !errors.Is(err, ErrCorpus) {
			t.Fatalf("%+v: Restore err = %v, want ErrCorpus", corpus, err)
		}
		if got := s.Annotations(); !reflect.DeepEqual(got, want) || s.Dirty() != int64(len(want)) {
			t.Fatalf("%+v: a rejected restore changed the store: %v (dirty %d), want %v", corpus, got, s.Dirty(), want)
		}
	}
	// A store with no corpus reads nothing, not even its own snapshot.
	var buf bytes.Buffer
	if err := New(Options{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), Options{}); !errors.Is(err, ErrCorpus) {
		t.Fatalf("a corpus-less snapshot: err = %v, want ErrCorpus", err)
	}
}

// TestCorruptLabelStoreTruncationMatrix truncates a saved store at every
// byte offset — the file is small enough to afford the full matrix — and
// requires a typed error each time.
func TestCorruptLabelStoreTruncationMatrix(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleStore().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		loadTyped(t, data[:cut], "truncation")
	}
	if _, err := Load(bytes.NewReader(data), Options{Corpus: testCorpus}); err != nil {
		t.Fatalf("intact store: %v", err)
	}
}

// TestCorruptLabelStoreBitFlipSweep flips every bit of a saved store and
// requires a typed error each time — an annotation can never be silently
// altered on disk.
func TestCorruptLabelStoreBitFlipSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := sampleStore().Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mut := append([]byte(nil), data...)
	for i := range mut {
		for bit := 0; bit < 8; bit++ {
			mut[i] ^= 1 << bit
			loadTyped(t, mut, "bit flip")
			mut[i] ^= 1 << bit
		}
	}
}

// TestLabelStoreWrongKindRejected loads an artifact of another kind through
// the label-store reader and requires the typed kind error — a label store
// and an index can never be confused for each other.
func TestLabelStoreWrongKindRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := snapshot.EncodeGob(&buf, "tasti-index", storeMeta{Count: 0}); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes()), Options{Corpus: testCorpus}); !errors.Is(err, snapshot.ErrKind) {
		t.Fatalf("err = %v, want ErrKind", err)
	}
}

// TestLabelStoreSkipsUnknownTrailingFrames appends a frame this reader does
// not know and requires the load to succeed — the forward-compatibility
// contract shared with the index container.
func TestLabelStoreSkipsUnknownTrailingFrames(t *testing.T) {
	src := sampleStore()
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, Kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Encode(metaFrame, storeMeta{Count: src.Len(), Corpus: testCorpus}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Encode(labelsFrame, src.Annotations()); err != nil {
		t.Fatal(err)
	}
	if err := sw.Frame("future-extension", []byte("from a newer build")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()), Options{Corpus: testCorpus})
	if err != nil {
		t.Fatalf("unknown trailing frame broke the load: %v", err)
	}
	if !reflect.DeepEqual(got.Annotations(), src.Annotations()) {
		t.Fatalf("annotations changed across the extended container")
	}
}

func TestLabelStoreFlushAndLoadFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.snap")
	s := sampleStore()
	if err := s.Flush(path); err != nil {
		t.Fatal(err)
	}
	if s.Dirty() != 0 {
		t.Fatalf("dirty after flush = %d, want 0", s.Dirty())
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Annotations(), s.Annotations()) {
		t.Fatalf("flushed file did not round-trip")
	}
	// Labels stored after the flush re-dirty the store.
	s.Put(99, dataset.TextAnnotation{Operator: "AVG"})
	if s.Dirty() != 1 {
		t.Fatalf("dirty after post-flush put = %d, want 1", s.Dirty())
	}
}

// TestLabelStoreFlushEvery: the periodic flusher writes only a store that
// holds labels the file lacks, and stop flushes what the last tick missed,
// waits for it, and is idempotent.
func TestLabelStoreFlushEvery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "labels.snap")
	s := New(Options{Corpus: testCorpus})
	var mu sync.Mutex
	var outcomes []error
	stop := s.FlushEvery(path, time.Millisecond, func(err error) {
		mu.Lock()
		outcomes = append(outcomes, err)
		mu.Unlock()
	})
	time.Sleep(20 * time.Millisecond)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a clean store was flushed: %v", err)
	}
	s.Put(1, dataset.TextAnnotation{Operator: "SUM"})
	deadline := time.Now().Add(5 * time.Second)
	for s.Dirty() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the periodic flusher never wrote a dirty store")
		}
		time.Sleep(time.Millisecond)
	}
	stop()
	s.Put(2, dataset.TextAnnotation{Operator: "AVG"}) // after stop: stays dirty
	stop()
	if s.Dirty() != 1 {
		t.Fatalf("dirty = %d after stop, want 1: stop flushed twice or the loop outlived it", s.Dirty())
	}
	got, err := loadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 1 {
		t.Fatalf("the file holds %d labels, want 1", got.Len())
	}
	mu.Lock()
	defer mu.Unlock()
	for _, err := range outcomes {
		if err != nil {
			t.Fatalf("flush reported %v", err)
		}
	}

	// With no period only stop writes, and it writes everything.
	path = filepath.Join(t.TempDir(), "labels.snap")
	s = sampleStore()
	stop = s.FlushEvery(path, 0, nil)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("a zero period flushed before stop: %v", err)
	}
	stop()
	if got, err := loadFile(path); err != nil || got.Len() != s.Len() {
		t.Fatalf("stop flushed %v labels (%v), want %d", got, err, s.Len())
	}
}

// TestChaosLabelStoreFlushKillLosesNoAckedLabels simulates kill -9 during a
// store flush: a flush that dies mid-write (temp file written, never
// renamed; or a torn temp left behind) must leave the previously acked
// flush fully intact and loadable.
func TestChaosLabelStoreFlushKillLosesNoAckedLabels(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "labels.snap")

	// Flush v1 — these labels are acked once Flush returns.
	s := sampleStore()
	acked := s.Annotations()
	if err := s.Flush(path); err != nil {
		t.Fatal(err)
	}

	// A second flush grows the store but "dies" before the atomic rename:
	// emulated by writing the new container to a temp path in the same
	// directory and abandoning it, plus a torn copy for good measure.
	s.Put(100, dataset.SpeechAnnotation{Gender: "female", AgeYears: 52})
	var v2 bytes.Buffer
	if err := s.Save(&v2); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "labels.snap.tmp"), v2.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "labels.snap.tmp2"), v2.Bytes()[:v2.Len()/2], 0o644); err != nil {
		t.Fatal(err)
	}

	// The acked file is untouched: every label from the completed flush
	// loads; the interrupted flush's extra label is simply not there yet.
	got, err := loadFile(path)
	if err != nil {
		t.Fatalf("acked flush unreadable after interrupted successor: %v", err)
	}
	if !reflect.DeepEqual(got.Annotations(), acked) {
		t.Fatalf("acked labels changed:\n got %v\nwant %v", got.Annotations(), acked)
	}

	// And a flush that fails mid-write through the atomic writer itself
	// must leave the acked file serving.
	wrote := false
	err = failingFlush(path, func() error {
		wrote = true
		return errors.New("simulated power loss")
	})
	if err == nil || !wrote {
		t.Fatalf("simulated failure did not propagate (err=%v wrote=%v)", err, wrote)
	}
	got, err = loadFile(path)
	if err != nil {
		t.Fatalf("acked flush unreadable after failed write: %v", err)
	}
	if !reflect.DeepEqual(got.Annotations(), acked) {
		t.Fatalf("acked labels changed after failed write")
	}
}

// failingFlush drives the same atomic writer Flush uses, but fails after
// partially writing — the closest userspace stand-in for dying mid-write.
func failingFlush(path string, fail func() error) error {
	return snapshot.WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("partial garbage")); err != nil {
			return err
		}
		return fail()
	})
}
