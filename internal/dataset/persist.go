package dataset

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/snapshot"
)

// GobAnnotationsRegistered marks this init as the repository's single gob
// registration point for annotation types. Every decoder of annotation
// interface values — index snapshots in package shard, label stores in
// package store, dataset files here — imports this package, so a new
// annotation schema is added to this one list or to none of them; the
// two-decoders-drift failure mode is structurally impossible. Packages that rely on the registration
// without otherwise referencing this package assert the dependency with
// `var _ = dataset.GobAnnotationsRegistered`.
const GobAnnotationsRegistered = true

func init() {
	// Dataset.Truth, index annotation caches, and label-store maps all
	// hold Annotation interface values; gob needs the concrete types.
	gob.Register(VideoAnnotation{})
	gob.Register(TextAnnotation{})
	gob.Register(SpeechAnnotation{})
}

// datasetKind is the framed-container artifact type for saved corpora.
const datasetKind = "tasti-dataset"

// Save serializes the dataset in the framed snapshot format (magic,
// version, checksummed frames — see internal/snapshot), so a generated
// corpus can be shared or reloaded without regenerating it. Pair with
// snapshot.WriteFile for an atomic, fsynced on-disk replacement.
func (d *Dataset) Save(w io.Writer) error {
	if err := d.Validate(); err != nil {
		return fmt.Errorf("dataset: refusing to save invalid dataset: %w", err)
	}
	if err := snapshot.EncodeGob(w, datasetKind, d); err != nil {
		return fmt.Errorf("dataset: saving %s: %w", d.Name, err)
	}
	return nil
}

// Load deserializes a dataset saved with Save and validates it. The file is
// checksum-verified with typed errors (snapshot.ErrBadMagic for a stream that
// is not a snapshot).
func Load(r io.Reader) (*Dataset, error) {
	var d Dataset
	if err := snapshot.DecodeGob(r, datasetKind, &d); err != nil {
		return nil, fmt.Errorf("dataset: loading: %w", err)
	}
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: loaded dataset invalid: %w", err)
	}
	return &d, nil
}
