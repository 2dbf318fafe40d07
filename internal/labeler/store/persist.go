package store

import (
	"fmt"
	"io"

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

// storeMeta is the "meta" frame: the entry count, validated against the
// decoded map so a spliced file cannot smuggle a short map past the CRCs.
type storeMeta struct {
	Count int
}

// Save writes the store as a framed snapshot of kind Kind. The store lock is
// held for the duration, so the written set is a consistent point-in-time
// view.
func (s *Store) Save(w io.Writer) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.saveLocked(w)
}

func (s *Store) saveLocked(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, Kind)
	if err != nil {
		return err
	}
	if err := sw.Encode(metaFrame, storeMeta{Count: len(s.anns)}); err != nil {
		return err
	}
	if err := sw.Encode(labelsFrame, s.anns); err != nil {
		return err
	}
	return sw.Close()
}

// Load reads a label store written by Save, verifying every CRC before any
// annotation is trusted. Unknown trailing frames are skipped for forward
// compatibility.
func Load(r io.Reader, opts Options) (*Store, error) {
	sr, err := snapshot.NewReader(r, Kind)
	if err != nil {
		return nil, err
	}
	var meta storeMeta
	if err := sr.Decode(metaFrame, &meta); err != nil {
		return nil, err
	}
	anns := make(map[int]dataset.Annotation)
	if err := sr.Decode(labelsFrame, &anns); err != nil {
		return nil, err
	}
	// Drain trailing frames so the whole-file CRC is verified — a spliced or
	// truncated tail fails here, not at some later query.
	if err := sr.Drain(); err != nil {
		return nil, err
	}
	if len(anns) != meta.Count {
		return nil, fmt.Errorf("label store: meta declares %d entries, labels frame carries %d", meta.Count, len(anns))
	}
	s := New(opts)
	s.Warm(anns)
	s.MarkClean()
	return s, nil
}

// LoadFile loads a persisted store from path.
func LoadFile(path string, opts Options) (*Store, error) {
	var s *Store
	err := snapshot.ReadFile(path, func(r io.Reader) error {
		var lerr error
		s, lerr = Load(r, opts)
		return lerr
	})
	return s, err
}

// Flush persists the store to path atomically (temp file, fsync, rename,
// directory fsync): a crash — even kill -9 — mid-flush leaves the previous
// file intact, so every label acked by an earlier flush survives. On success
// the dirty counter is decremented by the flushed delta; labels stored while
// the write was in flight stay dirty for the next flush.
func (s *Store) Flush(path string) error {
	var flushed int64
	err := snapshot.WriteFile(path, func(w io.Writer) error {
		s.mu.Lock()
		defer s.mu.Unlock()
		flushed = s.dirty
		return s.saveLocked(w)
	})
	if err != nil {
		s.met.Load().reg.Counter(`tasti_labelstore_flush_total{outcome="error"}`).Inc()
		return err
	}
	s.mu.Lock()
	s.dirty -= flushed
	s.mu.Unlock()
	s.met.Load().reg.Counter(`tasti_labelstore_flush_total{outcome="ok"}`).Inc()
	return nil
}
