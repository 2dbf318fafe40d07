package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// requireBadMagic fails unless input without the snapshot magic was refused
// with snapshot.ErrBadMagic.
func requireBadMagic(t *testing.T, data []byte, err error) {
	t.Helper()
	if !bytes.HasPrefix(data, snapshot.Magic[:]) && !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("input without the snapshot magic: err = %v, want ErrBadMagic", err)
	}
}

// FuzzLoadCheckpoint feeds arbitrary bytes to LoadCheckpoint and requires it
// to terminate with a value or an error: no panic, no hang, no unbounded
// allocation.
func FuzzLoadCheckpoint(f *testing.F) {
	ckpt := &Checkpoint{
		Seed: 3, DatasetLen: 120, TrainingBudget: 0, NumReps: 10,
		Labeled: map[int]dataset.Annotation{},
		Failed:  map[int]string{5: "dead"},
	}
	var framed bytes.Buffer
	if err := ckpt.Save(&framed); err != nil {
		f.Fatal(err)
	}
	var bare bytes.Buffer // what builds before the framed format wrote
	if err := gob.NewEncoder(&bare).Encode(ckpt); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(bare.Bytes())
	f.Add(framed.Bytes()[:len(framed.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("TASTISNP\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := LoadCheckpoint(bytes.NewReader(data))
		requireBadMagic(t, data, err)
	})
}
