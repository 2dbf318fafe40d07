package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/snapshot"
)

// smallIndex builds a compact TASTI-PT index for persistence tests.
func smallIndex(t *testing.T) *Index {
	t.Helper()
	cfg := PretrainedConfig(25, 5)
	cfg.EmbedDim = 8
	cfg.K = 3
	ix, _, _ := buildTestIndex(t, cfg, "night-street", 300)
	return ix
}

// TestLoadRoundTripState pins the loaded state field by field: table shape,
// representatives, annotations and every embedding bit.
func TestLoadRoundTripState(t *testing.T) {
	ix := smallIndex(t)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Table.K != ix.Table.K || !slices.Equal(got.Table.Reps, ix.Table.Reps) {
		t.Fatal("table mismatch")
	}
	if len(got.Annotations) != len(ix.Annotations) {
		t.Fatalf("%d annotations, want %d", len(got.Annotations), len(ix.Annotations))
	}
	if got.Embeddings.Rows() != ix.Embeddings.Rows() || got.Embeddings.Dim() != ix.Embeddings.Dim() {
		t.Fatalf("embeddings %dx%d, want %dx%d",
			got.Embeddings.Rows(), got.Embeddings.Dim(), ix.Embeddings.Rows(), ix.Embeddings.Dim())
	}
	if !slices.Equal(got.Embeddings.Data(), ix.Embeddings.Data()) {
		t.Fatal("embedding bits differ")
	}
}

// TestLoadWrongKindRejected pins that a checkpoint file cannot be loaded as
// an index: the kind check fires before any decoding.
func TestLoadWrongKindRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := (&Checkpoint{Seed: 1, DatasetLen: 10}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrKind) {
		t.Fatalf("err = %v, want ErrKind", err)
	}
}

// frameBoundaries parses a framed snapshot's structure and returns every
// frame-boundary byte offset: the end of the header, of each frame, and of
// the trailer.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	off := len(snapshot.Magic) + 4 // magic + version
	if off >= len(data) {
		t.Fatal("file too short")
	}
	off += 1 + int(data[len(snapshot.Magic)+4]) + 4 // kindLen + kind + header CRC
	bounds := []int{off}
	for off < len(data) {
		nameLen := int(data[off])
		if nameLen == 0 { // trailer
			bounds = append(bounds, off+1+4)
			break
		}
		off += 1 + nameLen
		plen := binary.BigEndian.Uint64(data[off : off+8])
		off += 8 + int(plen) + 4
		bounds = append(bounds, off)
	}
	return bounds
}

// loadTyped asserts that loading corrupted bytes yields an error from the
// snapshot taxonomy.
func loadTyped(t *testing.T, data []byte, what string) {
	t.Helper()
	_, err := Load(bytes.NewReader(data))
	if err == nil {
		t.Fatalf("%s: corrupted snapshot loaded successfully", what)
	}
	for _, want := range []error{
		snapshot.ErrBadMagic, snapshot.ErrKind, snapshot.ErrVersion,
		snapshot.ErrChecksum, snapshot.ErrTruncated, snapshot.ErrFrameTooLarge,
	} {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("%s: untyped error %v", what, err)
}

// TestCorruptIndexTruncationAtFrameBoundaries truncates a saved index at
// every frame boundary (and one byte to each side) and requires a typed
// error each time — a torn write can never masquerade as a valid index.
func TestCorruptIndexTruncationAtFrameBoundaries(t *testing.T) {
	var buf bytes.Buffer
	if err := smallIndex(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, b := range frameBoundaries(t, data) {
		for _, cut := range []int{b - 1, b} {
			if cut < 0 || cut >= len(data) {
				continue
			}
			loadTyped(t, data[:cut], "truncation")
		}
	}
	// And a coarse sweep across every region of the file.
	for cut := 0; cut < len(data); cut += 17 {
		loadTyped(t, data[:cut], "truncation sweep")
	}
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact snapshot: %v", err)
	}
}

// TestCorruptIndexBitFlipSweep flips bits across a saved index — every bit
// in the structural head and tail, a strided sweep through the bulk — and
// requires a typed error (never a panic or silent acceptance) each time.
func TestCorruptIndexBitFlipSweep(t *testing.T) {
	var buf bytes.Buffer
	if err := smallIndex(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	mut := append([]byte(nil), data...)
	flip := func(i, bit int) {
		mut[i] ^= 1 << bit
		loadTyped(t, mut, "bit flip")
		mut[i] ^= 1 << bit
	}
	edge := 64
	if edge > len(data) {
		edge = len(data)
	}
	for i := 0; i < edge; i++ { // structural head: magic, header, first frame
		for bit := 0; bit < 8; bit++ {
			flip(i, bit)
		}
	}
	for i := len(data) - edge; i < len(data); i++ { // tail: trailer CRC
		for bit := 0; bit < 8; bit++ {
			flip(i, bit)
		}
	}
	for i := edge; i < len(data)-edge; i += 13 { // bulk sweep
		flip(i, i%8)
	}
}

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

// TestSaveIsFramed pins the writer side of the format change: new saves
// start with the snapshot magic, so old readers fail loudly instead of
// misparsing, and a format-stability diff can key on the prefix.
func TestSaveIsFramed(t *testing.T) {
	var buf bytes.Buffer
	if err := smallIndex(t).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(buf.Bytes(), snapshot.Magic[:]) {
		t.Fatal("Save did not write the snapshot magic")
	}
	var ckpt bytes.Buffer
	if err := (&Checkpoint{Seed: 1, DatasetLen: 1}).Save(&ckpt); err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(ckpt.Bytes(), snapshot.Magic[:]) {
		t.Fatal("Checkpoint.Save did not write the snapshot magic")
	}
}
