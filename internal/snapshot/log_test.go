package snapshot

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

// writeLog builds an append-only log of the given frames: header, frames, no
// trailer — the byte stream a WAL segment holds.
func writeLog(t *testing.T, kind string, frames [][]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := NewWriter(&buf, kind)
	if err != nil {
		t.Fatalf("NewWriter: %v", err)
	}
	for i, p := range frames {
		if err := sw.Frame("frame", p); err != nil {
			t.Fatalf("Frame %d: %v", i, err)
		}
	}
	return buf.Bytes()
}

// readLog decodes every frame of a log, returning copies of the payloads
// (Next reuses its buffer) and the error that ended the walk (io.EOF for a
// clean end).
func readLog(b []byte, kind string) (payloads [][]byte, end error) {
	sr, err := NewLogReader(bytes.NewReader(b), kind)
	if err != nil {
		return nil, err
	}
	for {
		_, p, err := sr.Next()
		if err != nil {
			return payloads, err
		}
		payloads = append(payloads, bytes.Clone(p))
	}
}

func TestLogReaderRoundTrip(t *testing.T) {
	frames := [][]byte{[]byte("alpha"), {}, []byte("gamma-gamma")}
	b := writeLog(t, "tasti-wal", frames)
	got, end := readLog(b, "tasti-wal")
	if end != io.EOF {
		t.Fatalf("end = %v, want io.EOF", end)
	}
	if len(got) != len(frames) {
		t.Fatalf("decoded %d frames, want %d", len(got), len(frames))
	}
	for i := range frames {
		if !bytes.Equal(got[i], frames[i]) {
			t.Fatalf("frame %d = %q, want %q", i, got[i], frames[i])
		}
	}
}

func TestLogReaderEmptyLog(t *testing.T) {
	b := writeLog(t, "tasti-wal", nil)
	got, end := readLog(b, "tasti-wal")
	if end != io.EOF || len(got) != 0 {
		t.Fatalf("empty log: frames=%d end=%v, want 0 frames and io.EOF", len(got), end)
	}
}

func TestLogReaderHeaderValidation(t *testing.T) {
	b := writeLog(t, "tasti-wal", [][]byte{[]byte("x")})
	if _, err := NewLogReader(bytes.NewReader(b), "tasti-index"); !errors.Is(err, ErrKind) {
		t.Fatalf("wrong kind: %v, want ErrKind", err)
	}
	garbled := append([]byte(nil), b...)
	garbled[0] ^= 0xFF
	if _, err := NewLogReader(bytes.NewReader(garbled), "tasti-wal"); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: %v, want ErrBadMagic", err)
	}
}

// TestLogReaderTruncationMatrix cuts a three-frame log at every byte offset:
// every prefix must decode to a prefix of the original frames, ending with
// io.EOF exactly at frame boundaries and ErrTruncated everywhere else. This
// is the contract the WAL's crash-recovery replay is built on.
func TestLogReaderTruncationMatrix(t *testing.T) {
	frames := [][]byte{[]byte("first"), []byte("second!"), []byte("third frame")}
	full := writeLog(t, "tasti-wal", frames)

	// Frame-boundary offsets: header end, then after each frame.
	boundaries := map[int]int{} // offset -> frames decodable there
	hdr := len(writeLog(t, "tasti-wal", nil))
	boundaries[hdr] = 0
	for n := 1; n <= len(frames); n++ {
		boundaries[len(writeLog(t, "tasti-wal", frames[:n]))] = n
	}

	for cut := hdr; cut <= len(full); cut++ {
		got, end := readLog(full[:cut], "tasti-wal")
		if want, ok := boundaries[cut]; ok {
			if end != io.EOF || len(got) != want {
				t.Fatalf("cut=%d (boundary): frames=%d end=%v, want %d frames and io.EOF", cut, len(got), end, want)
			}
			continue
		}
		if !errors.Is(end, ErrTruncated) && !errors.Is(end, ErrChecksum) {
			t.Fatalf("cut=%d: end=%v, want ErrTruncated or ErrChecksum", cut, end)
		}
		// Whatever decoded must be an exact prefix.
		for i := range got {
			if !bytes.Equal(got[i], frames[i]) {
				t.Fatalf("cut=%d: frame %d = %q, want %q", cut, i, got[i], frames[i])
			}
		}
	}
}

// TestLogReaderCorruptionTyped flips one byte at every offset past the magic:
// decoding must yield a typed taxonomy error or a clean (possibly shorter)
// read, never a panic and never silently wrong frame bytes.
func TestLogReaderCorruptionTyped(t *testing.T) {
	frames := [][]byte{[]byte("payload-one"), []byte("payload-two")}
	full := writeLog(t, "tasti-wal", frames)
	for off := len(Magic); off < len(full); off++ {
		mut := append([]byte(nil), full...)
		mut[off] ^= 0x01
		sr, err := NewLogReader(bytes.NewReader(mut), "tasti-wal")
		if err != nil {
			continue // header rejected with a typed error: fine
		}
		for i := 0; ; i++ {
			_, p, err := sr.Next()
			if err == io.EOF {
				break
			}
			if err != nil {
				break // typed truncation/checksum error: fine
			}
			if i < len(frames) && !bytes.Equal(p, frames[i]) {
				t.Fatalf("off=%d: frame %d decoded wrong bytes despite passing CRC", off, i)
			}
		}
	}
}

// TestLogReaderStrayTrailerByte: a zero name-length byte in a log is a torn
// frame header, not a trailer.
func TestLogReaderStrayTrailerByte(t *testing.T) {
	b := writeLog(t, "tasti-wal", [][]byte{[]byte("x")})
	b = append(b, 0x00)
	got, end := readLog(b, "tasti-wal")
	if len(got) != 1 || !errors.Is(end, ErrTruncated) {
		t.Fatalf("frames=%d end=%v, want 1 frame and ErrTruncated", len(got), end)
	}
}
