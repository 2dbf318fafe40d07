package snapshot

import (
	"bytes"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// buildSample returns a valid three-frame snapshot of the given kind.
func buildSample(t *testing.T, kind string) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Frame("meta", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	if err := sw.Encode("numbers", []int{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Frame("empty", nil); err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestFrameFromStreamsPieces: a frame streamed in pieces is byte for byte
// the frame written whole, and a stream that misses its declared length
// fails and leaves the writer unable to seal the file.
func TestFrameFromStreamsPieces(t *testing.T) {
	// write frames "abcdefgh" declared as n bytes, whole or in pieces, and
	// returns the sealed file and the frame's and the seal's errors.
	write := func(n int, whole bool) (data []byte, frameErr, closeErr error) {
		var buf bytes.Buffer
		sw, err := NewWriter(&buf, "test")
		if err != nil {
			t.Fatal(err)
		}
		if whole {
			frameErr = sw.Frame("bulk", []byte("abcdefgh"))
		} else {
			frameErr = sw.FrameFrom("bulk", n, func(emit func([]byte) error) error {
				for _, p := range []string{"abc", "", "defgh"} {
					if err := emit([]byte(p)); err != nil {
						return err
					}
				}
				return nil
			})
		}
		closeErr = sw.Close()
		return buf.Bytes(), frameErr, closeErr
	}
	want, _, _ := write(8, true)
	if got, ferr, cerr := write(8, false); ferr != nil || cerr != nil || !bytes.Equal(got, want) {
		t.Fatalf("streamed frame differs from the whole one (errors %v, %v)", ferr, cerr)
	}
	for _, n := range []int{7, 9} {
		if _, ferr, cerr := write(n, false); ferr == nil || cerr == nil {
			t.Errorf("8 bytes streamed into a frame declaring %d: frame error %v, seal error %v", n, ferr, cerr)
		}
	}
}

func TestRoundTrip(t *testing.T) {
	data := buildSample(t, "test")
	sr, err := NewReader(bytes.NewReader(data), "test")
	if err != nil {
		t.Fatal(err)
	}
	if sr.Kind() != "test" {
		t.Errorf("kind = %q", sr.Kind())
	}
	name, payload, err := sr.Next()
	if err != nil || name != "meta" || string(payload) != "hello" {
		t.Fatalf("frame 1 = %q %q %v", name, payload, err)
	}
	var nums []int
	if err := sr.Decode("numbers", &nums); err != nil {
		t.Fatal(err)
	}
	if len(nums) != 4 || nums[3] != 4 {
		t.Errorf("nums = %v", nums)
	}
	name, payload, err = sr.Next()
	if err != nil || name != "empty" || len(payload) != 0 {
		t.Fatalf("frame 3 = %q %q %v", name, payload, err)
	}
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("trailer: %v", err)
	}
	// Idempotent EOF.
	if _, _, err := sr.Next(); err != io.EOF {
		t.Fatalf("after trailer: %v", err)
	}
}

func TestEncodeDecodeGob(t *testing.T) {
	type payload struct {
		Name  string
		Score float64
	}
	var buf bytes.Buffer
	if err := EncodeGob(&buf, "unit", payload{"a", 0.5}); err != nil {
		t.Fatal(err)
	}
	var got payload
	if err := DecodeGob(bytes.NewReader(buf.Bytes()), "unit", &got); err != nil {
		t.Fatal(err)
	}
	if got.Name != "a" || got.Score != 0.5 {
		t.Errorf("got %+v", got)
	}
}

func TestWrongKind(t *testing.T) {
	data := buildSample(t, "checkpoint")
	if _, err := NewReader(bytes.NewReader(data), "index"); !errors.Is(err, ErrKind) {
		t.Fatalf("err = %v, want ErrKind", err)
	}
}

func TestBadMagic(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("x"),
		[]byte("not a snapshot file at all"),
		[]byte("TASTISN"), // 7-byte prefix of the magic: too short to be ours
	} {
		if _, err := NewReader(bytes.NewReader(in), "test"); !errors.Is(err, ErrBadMagic) {
			t.Errorf("input %q: err = %v, want ErrBadMagic", in, err)
		}
	}
}

func TestVersionRejected(t *testing.T) {
	data := buildSample(t, "test")
	// The version field is bytes 8..11; bump it and fix the header CRC by
	// rewriting the header from scratch is complex — instead check that a
	// flipped version fails with ErrChecksum (damage) and a properly
	// re-checksummed wrong version fails with ErrVersion.
	bad := append([]byte(nil), data...)
	bad[11] ^= 0xFF
	if _, err := NewReader(bytes.NewReader(bad), "test"); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped version: err = %v, want ErrChecksum", err)
	}
	rehdr := rewriteVersion(t, data, Version+1)
	if _, err := NewReader(bytes.NewReader(rehdr), "test"); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: err = %v, want ErrVersion", err)
	}
}

// rewriteVersion sets the header version field and recomputes the header
// CRC, leaving the rest of the file untouched (so only the header parses).
func rewriteVersion(t *testing.T, data []byte, v uint32) []byte {
	t.Helper()
	out := append([]byte(nil), data...)
	out[8] = byte(v >> 24)
	out[9] = byte(v >> 16)
	out[10] = byte(v >> 8)
	out[11] = byte(v)
	kindLen := int(out[12])
	hdr := out[8 : 13+kindLen]
	crc := crc32Checksum(hdr)
	copy(out[13+kindLen:17+kindLen], crc)
	return out
}

func crc32Checksum(b []byte) []byte {
	s := crc32.Checksum(b, castagnoli)
	return []byte{byte(s >> 24), byte(s >> 16), byte(s >> 8), byte(s)}
}

func TestFrameTooLarge(t *testing.T) {
	data := buildSample(t, "test")
	sr, err := NewReaderLimit(bytes.NewReader(data), "test", 3)
	if err != nil {
		t.Fatal(err)
	}
	// First frame declares 5 bytes > cap 3.
	if _, _, err := sr.Next(); !errors.Is(err, ErrFrameTooLarge) {
		t.Fatalf("err = %v, want ErrFrameTooLarge", err)
	}
}

func TestMissingFrameIsTruncated(t *testing.T) {
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, "test")
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	sr, err := NewReader(bytes.NewReader(buf.Bytes()), "test")
	if err != nil {
		t.Fatal(err)
	}
	var v int
	if err := sr.Decode("data", &v); !errors.Is(err, ErrTruncated) {
		t.Fatalf("err = %v, want ErrTruncated", err)
	}
}

func TestAtomicWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "artifact.bin")

	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("generation 1"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil || string(got) != "generation 1" {
		t.Fatalf("read back %q, %v", got, err)
	}

	// Replacement is atomic: a failing writer leaves the old bytes intact
	// and no temp litter behind.
	boom := errors.New("disk on fire")
	if err := WriteFile(path, func(w io.Writer) error {
		w.Write([]byte("partial garbage")) //nolint:errcheck // intentionally abandoned
		return boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, err = os.ReadFile(path)
	if err != nil || string(got) != "generation 1" {
		t.Fatalf("after failed write: %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Errorf("temp file leaked: %s", e.Name())
		}
	}

	// Successful replacement.
	if err := WriteFile(path, func(w io.Writer) error {
		_, err := w.Write([]byte("generation 2"))
		return err
	}); err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if string(got) != "generation 2" {
		t.Fatalf("after rewrite: %q", got)
	}
}

func TestAtomicWriterAbortAndDoubleCommit(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.bin")
	aw, err := NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	aw.Write([]byte("x")) //nolint:errcheck // buffered
	aw.Abort()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("abort created the destination: %v", err)
	}
	if _, err := aw.Write([]byte("y")); err == nil {
		t.Error("write after Abort succeeded")
	}
	if err := aw.Commit(); err == nil {
		t.Error("Commit after Abort succeeded")
	}

	aw2, err := NewAtomicWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	aw2.Write([]byte("ok")) //nolint:errcheck // buffered
	if err := aw2.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := aw2.Commit(); err == nil {
		t.Error("double Commit succeeded")
	}
	aw2.Abort() // no-op after Commit
	if got, _ := os.ReadFile(path); string(got) != "ok" {
		t.Fatalf("read back %q", got)
	}
}

func TestReadFileMissing(t *testing.T) {
	err := ReadFile(filepath.Join(t.TempDir(), "nope"), func(io.Reader) error { return nil })
	if !os.IsNotExist(err) {
		t.Fatalf("err = %v, want not-exist", err)
	}
}
