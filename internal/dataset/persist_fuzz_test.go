package dataset

import (
	"bytes"
	"encoding/gob"
	"errors"
	"testing"

	"repro/internal/snapshot"
)

// FuzzDatasetLoad feeds arbitrary bytes to Load and requires termination
// with a value or an error: no panic, no hang. Accepted datasets must pass
// their own validation, and a stream that does not open with the snapshot
// magic — the bare-gob seed is what builds before the framed format wrote —
// is refused as ErrBadMagic before any of it is decoded.
func FuzzDatasetLoad(f *testing.F) {
	ds, err := Generate("wikisql", 60, 2)
	if err != nil {
		f.Fatal(err)
	}
	var framed bytes.Buffer
	if err := ds.Save(&framed); err != nil {
		f.Fatal(err)
	}
	var bare bytes.Buffer
	if err := gob.NewEncoder(&bare).Encode(ds); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(bare.Bytes())
	f.Add(framed.Bytes()[:len(framed.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("TASTISNP"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Load(bytes.NewReader(data))
		if err == nil && got.Validate() != nil {
			t.Fatal("Load accepted a dataset its own validation rejects")
		}
		if !bytes.HasPrefix(data, snapshot.Magic[:]) && !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("input without the snapshot magic: err = %v, want ErrBadMagic", err)
		}
	})
}

// TestCorruptDatasetTruncationMatrix truncates a saved corpus at every byte
// offset and requires a failure each time; framed-path failures must be
// typed.
func TestCorruptDatasetTruncationMatrix(t *testing.T) {
	ds, err := Generate("common-voice", 40, 4)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut += 3 {
		_, err := Load(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d/%d loaded successfully", cut, len(data))
		}
		typed := false
		for _, want := range []error{
			snapshot.ErrBadMagic, snapshot.ErrKind, snapshot.ErrVersion,
			snapshot.ErrChecksum, snapshot.ErrTruncated, snapshot.ErrFrameTooLarge,
		} {
			if errors.Is(err, want) {
				typed = true
				break
			}
		}
		if !typed {
			t.Fatalf("truncation at %d/%d: untyped error %v", cut, len(data), err)
		}
	}
	if _, err := Load(bytes.NewReader(data)); err != nil {
		t.Fatalf("intact corpus: %v", err)
	}
}
