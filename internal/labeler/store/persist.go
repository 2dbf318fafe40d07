package store

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// The store persists through the repository's framed snapshot container
// (package snapshot): magic, versioned header, per-frame CRC-32C, whole-file
// CRC trailer, atomic file replacement. A torn flush or a flipped bit is a
// typed ErrSnapshot* error, never a silently wrong annotation.
var _ = dataset.GobAnnotationsRegistered

// Kind is the snapshot container kind for a persisted label store. It is a
// new kind alongside the index kinds, so loading a label store as an index
// (or vice versa) fails with the snapshot-kind error — and index snapshots
// written before this kind existed keep loading exactly as before.
const Kind = "tasti-labels"

// Frame names inside a label-store container. Unknown trailing frames are
// skipped on load, mirroring the index container's forward-compatibility
// contract, so future sections do not break this reader.
const (
	metaFrame   = "meta"
	labelsFrame = "labels"
)

// Corpus identifies a corpus by the arguments that generate it. A label is
// an annotation of one record ID, so a snapshot is only meaningful over the
// corpus it was bought from.
type Corpus = dataset.Corpus

// ErrCorpus marks a label-store snapshot that names another corpus than the
// store reading it, or none: its labels may describe other records.
var ErrCorpus = errors.New("label store: snapshot of another corpus")

// storeMeta is the "meta" frame: the corpus the labels belong to, and the
// entry count, validated against the decoded map so a spliced file cannot
// smuggle a short map past the CRCs.
type storeMeta struct {
	Count  int
	Corpus Corpus
}

// Save writes the store as a framed snapshot of kind Kind: one
// point-in-time view of its annotations, under its corpus.
func (s *Store) Save(w io.Writer) error {
	return save(w, s.corpus, s.Annotations())
}

func save(w io.Writer, corpus Corpus, anns map[int]dataset.Annotation) error {
	sw, err := snapshot.NewWriter(w, Kind)
	if err != nil {
		return err
	}
	if err := sw.Encode(metaFrame, storeMeta{Count: len(anns), Corpus: corpus}); err != nil {
		return err
	}
	if err := sw.Encode(labelsFrame, anns); err != nil {
		return err
	}
	return sw.Close()
}

// Load reads a label store written by Save into a new store: Restore.
func Load(r io.Reader, opts Options) (*Store, error) {
	s := New(opts)
	if err := s.Restore(r); err != nil {
		return nil, err
	}
	return s, nil
}

// Restore reads a label store written by Save into s. A snapshot that names
// another corpus than s, or none, fails with ErrCorpus. Every CRC and every
// record ID is verified before any annotation is stored, so a rejected
// snapshot leaves s as it was; unknown trailing frames are skipped for
// forward compatibility. The annotations it adds are already on disk, so
// they do not count as dirty.
func (s *Store) Restore(r io.Reader) error {
	sr, err := snapshot.NewReader(r, Kind)
	if err != nil {
		return err
	}
	var meta storeMeta
	if err := sr.Decode(metaFrame, &meta); err != nil {
		return err
	}
	if meta.Corpus == (Corpus{}) || meta.Corpus != s.corpus {
		return fmt.Errorf("%w: the file names %+v, the store serves %+v", ErrCorpus, meta.Corpus, s.corpus)
	}
	anns := make(map[int]dataset.Annotation)
	if err := sr.Decode(labelsFrame, &anns); err != nil {
		return err
	}
	// Drain trailing frames so the whole-file CRC is verified — a spliced or
	// truncated tail fails here, not at some later query.
	if err := sr.Drain(); err != nil {
		return err
	}
	if len(anns) != meta.Count {
		return fmt.Errorf("label store: meta declares %d entries, labels frame carries %d", meta.Count, len(anns))
	}
	for id := range anns {
		if uint(id) >= denseLimit {
			return fmt.Errorf("label store: record %d outside [0,%d)", id, denseLimit)
		}
	}
	s.mu.Lock()
	dirty := s.dirty
	for id, ann := range anns {
		s.put(id, ann)
	}
	s.dirty = dirty
	s.mu.Unlock()
	return nil
}

// Flush persists the store to path atomically (temp file, fsync, rename,
// directory fsync): a crash — even kill -9 — mid-flush leaves the previous
// file intact, so every label acked by an earlier flush survives. On success
// the dirty counter is decremented by the flushed delta; labels stored while
// the write was in flight stay dirty for the next flush.
func (s *Store) Flush(path string) error {
	s.mu.Lock()
	flushed := s.dirty
	anns := s.annotationsLocked()
	s.mu.Unlock()
	met := s.met.Load()
	if err := snapshot.WriteFile(path, func(w io.Writer) error { return save(w, s.corpus, anns) }); err != nil {
		met.reg.Counter(`tasti_labelstore_flush_total{outcome="error"}`).Inc()
		return err
	}
	s.mu.Lock()
	s.dirty -= flushed
	s.mu.Unlock()
	met.reg.Counter(`tasti_labelstore_flush_total{outcome="ok"}`).Inc()
	return nil
}

// FlushEvery flushes the store to path every period while it holds labels
// the file lacks (Dirty), and once more when the returned stop is called, so
// the file ends up holding every label the store bought; stop waits for that
// last flush. report, when non-nil, receives each write's outcome (nil on
// success). A period <= 0 flushes only at stop.
func (s *Store) FlushEvery(path string, period time.Duration, report func(error)) (stop func()) {
	flush := func() {
		if s.Dirty() == 0 {
			return
		}
		if err := s.Flush(path); report != nil {
			report(err)
		}
	}
	quit, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		var tick <-chan time.Time // nil: never fires
		if period > 0 {
			t := time.NewTicker(period)
			defer t.Stop()
			tick = t.C
		}
		for {
			select {
			case <-tick:
				flush()
			case <-quit:
				return
			}
		}
	}()
	return sync.OnceFunc(func() {
		close(quit)
		<-exited
		flush()
	})
}
