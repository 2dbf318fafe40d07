package core

import (
	"bytes"
	"testing"

	"repro/internal/dataset"
)

// TestCorruptCheckpointTruncationMatrix runs the full per-byte truncation
// matrix over a saved checkpoint (small enough to afford it).
func TestCorruptCheckpointTruncationMatrix(t *testing.T) {
	ckpt := &Checkpoint{
		Seed: 7, DatasetLen: 50, TrainingBudget: 10, NumReps: 5,
		Labeled: map[int]dataset.Annotation{},
		Failed:  map[int]string{3: "broken sensor"},
	}
	var buf bytes.Buffer
	if err := ckpt.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		_, err := LoadCheckpoint(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(data))
		}
	}
	got, err := LoadCheckpoint(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 7 || got.Failed[3] != "broken sensor" {
		t.Fatalf("round trip lost state: %+v", got)
	}
}
