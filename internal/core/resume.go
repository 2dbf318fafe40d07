package core

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// checkpointKind is the artifact-type string in a checkpoint's framed
// container header, so loading an index snapshot as a checkpoint fails with
// snapshot.ErrKind.
const checkpointKind = "tasti-checkpoint"

// Checkpoint captures the labeling progress of an index build: every
// annotation the target labeler has produced so far, plus the records known
// to be permanently unlabelable. Label invocations are the scarce resource —
// embeddings, FPF sweeps, and the distance table are cheap to recompute and
// fully determined by the seed — so checkpointing the labels alone is enough
// to resume an aborted Build without re-spending any labeler budget.
//
// A checkpoint is bound to the (seed, dataset, budgets) it was taken under;
// BuildResumable rejects a checkpoint from a different configuration, since
// its labels could describe different records.
type Checkpoint struct {
	// Seed, DatasetLen, TrainingBudget, and NumReps fingerprint the build
	// the checkpoint belongs to.
	Seed           int64
	DatasetLen     int
	TrainingBudget int
	NumReps        int
	// Labeled maps record ID to the annotation already paid for.
	Labeled map[int]dataset.Annotation
	// Failed maps permanently unlabelable record IDs to the error that
	// condemned them, so degraded resumes skip them without re-spending
	// attempts.
	Failed map[int]string
}

// NewCheckpoint returns an empty checkpoint bound to a build configuration.
func NewCheckpoint(cfg Config, ds *dataset.Dataset) *Checkpoint {
	return &Checkpoint{
		Seed:           cfg.Seed,
		DatasetLen:     ds.Len(),
		TrainingBudget: cfg.TrainingBudget,
		NumReps:        cfg.NumReps,
		Labeled:        make(map[int]dataset.Annotation),
		Failed:         make(map[int]string),
	}
}

// compatible checks that the checkpoint was taken under the same build
// configuration it is now resuming.
func (c *Checkpoint) compatible(cfg Config, ds *dataset.Dataset) error {
	if c.Seed != cfg.Seed || c.DatasetLen != ds.Len() ||
		c.TrainingBudget != cfg.TrainingBudget || c.NumReps != cfg.NumReps {
		return fmt.Errorf("core: checkpoint (seed %d, %d records, budgets %d/%d) does not match build (seed %d, %d records, budgets %d/%d)",
			c.Seed, c.DatasetLen, c.TrainingBudget, c.NumReps,
			cfg.Seed, ds.Len(), cfg.TrainingBudget, cfg.NumReps)
	}
	if c.Labeled == nil {
		c.Labeled = make(map[int]dataset.Annotation)
	}
	if c.Failed == nil {
		c.Failed = make(map[int]string)
	}
	return nil
}

// Save serializes the checkpoint in the framed snapshot format, the same
// container the index snapshots use (package dataset's init registers the
// annotation types). Pair with snapshot.WriteFile for atomic replacement —
// a checkpoint exists to survive crashes, so a torn checkpoint write would
// defeat the point.
func (c *Checkpoint) Save(w io.Writer) error {
	if err := snapshot.EncodeGob(w, checkpointKind, c); err != nil {
		return fmt.Errorf("core: saving checkpoint: %w", err)
	}
	return nil
}

// LoadCheckpoint deserializes a checkpoint saved with Save, checksum-verified
// with typed errors (snapshot.ErrBadMagic for a stream that is not a snapshot).
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	var c Checkpoint
	if err := snapshot.DecodeGob(r, checkpointKind, &c); err != nil {
		return nil, fmt.Errorf("core: loading checkpoint: %w", err)
	}
	return &c, nil
}

// LabeledIDs returns the checkpointed record IDs in ascending order.
func (c *Checkpoint) LabeledIDs() []int {
	ids := make([]int, 0, len(c.Labeled))
	for id := range c.Labeled {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// BuildInterruptedError reports a Build stopped by a labeler failure it
// could neither retry nor degrade around. It is actionable: Checkpoint holds
// every label already paid for, so saving it and re-invoking BuildResumable
// completes the index without re-spending labeler budget on the records in
// Labeled.
type BuildInterruptedError struct {
	// Phase is the labeling phase that failed: "training" or
	// "representatives".
	Phase string
	// Labeled lists the record IDs whose annotations the checkpoint holds.
	Labeled []int
	// Pending lists the record IDs of the failed phase still awaiting
	// labels, in ascending order.
	Pending []int
	// LabelCalls is the number of labeler invocations this build spent
	// before stopping (checkpoint-restored labels are free and excluded).
	LabelCalls int64
	// Checkpoint resumes the build.
	Checkpoint *Checkpoint
	// Err is the failure that stopped the build.
	Err error
}

// Error implements error.
func (e *BuildInterruptedError) Error() string {
	total := len(e.Labeled) + len(e.Pending)
	return fmt.Sprintf("core: build interrupted labeling %s (%d of %d labeled, %d invocations spent; resumable from checkpoint): %v",
		e.Phase, len(e.Labeled), total, e.LabelCalls, e.Err)
}

// Unwrap exposes the underlying failure to errors.Is/As, so callers can
// still detect labeler.ErrBudgetExhausted and friends.
func (e *BuildInterruptedError) Unwrap() error { return e.Err }
