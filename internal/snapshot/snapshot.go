// Package snapshot is the durable-artifact layer of the repository: a framed,
// versioned, corruption-resistant container format plus atomic file
// replacement. Every artifact the pipeline persists — index snapshots, label
// stores, generated corpora, trace dumps — goes through this package, so
// a torn write, a bit-flipped disk block, or a kill -9 mid-write can never be
// mistaken for a valid artifact.
//
// # File layout
//
// All integers are big-endian. CRCs are CRC-32C (Castagnoli).
//
//	file    = magic header frame* trailer
//	magic   = "TASTISNP" (8 bytes)
//	header  = version:u32 kindLen:u8 kind crc:u32        (crc over version..kind)
//	frame   = nameLen:u8(>0) name payloadLen:u64 payload crc:u32
//	                                                     (crc over nameLen..payload)
//	trailer = 0x00 fileCRC:u32                           (crc over every prior byte)
//
// The kind string ("tasti-shard-index", "tasti-labels", "tasti-dataset", ...)
// distinguishes artifact types sharing the container format, so loading a
// label store as an index fails with ErrKind instead of a confusing decode error. Each frame is
// an independently checksummed, length-prefixed section; the trailer's
// whole-file CRC catches frame-boundary splices that per-frame CRCs cannot.
//
// # Error taxonomy
//
// Decoding failures are classified so callers can distinguish "wrong file"
// (ErrBadMagic, ErrKind, ErrVersion) from "damaged file" (ErrChecksum,
// ErrTruncated, ErrFrameTooLarge). All are returned wrapped; test with
// errors.Is.
//
// # Bounded allocation
//
// Declared frame lengths are validated against a sanity cap (default 1 GiB,
// DefaultMaxFrameBytes) before any allocation, and a Reader reads every
// payload into one buffer it grows only as bytes arrive (to 1 MiB, then
// doubling) and reuses for the next frame, so a corrupted length field costs
// at most 1 MiB or twice the bytes actually present before the truncation
// is detected — never an OOM.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
)

// Magic identifies a framed snapshot file. It never changes; format
// evolution happens through the version field behind it.
var Magic = [8]byte{'T', 'A', 'S', 'T', 'I', 'S', 'N', 'P'}

// Version is the current container-format version. Readers accept the range
// [MinVersion, Version]: the format is changed only by incrementing Version,
// and old readers fail new files with ErrVersion instead of misparsing them.
//
// Version history:
//
//	v1 — initial framed format; index embeddings as one gob [][]float64.
//	v2 — index embeddings as one flat row-major "embeddings.flat" frame.
//	v3 — an optional "embeddings.quant" frame: the quantized scan plane.
//	v4 — one index container: each shard's frames ("shard.<s>.meta",
//	     ".embeddings", ".reps", ".dists", ".quant") written straight into
//	     it, bulk arrays as little-endian fixed-width payloads; the nested
//	     "tasti-index" container is gone. The index loader rejects older
//	     headers with ErrVersion (rebuilt, not converted); every other kind
//	     still reads v1 on.
//	v5 — one representative set per index: the manifest carries K, the
//	     representative list and their annotations, written once; each
//	     "shard.<s>.meta" keeps its embedding width and plane parameters.
//	     The index loader rejects older headers with ErrVersion; every
//	     other kind still reads v1 on.
//	v6 — one scan plane: every "shard.<s>.meta" carries the quantized
//	     plane's parameters and every shard's ".quant" frame is required.
//	     The index loader rejects older headers with ErrVersion; every
//	     other kind still reads v1 on.
//	v7 — one record range: the manifest carries the shard count instead of
//	     per-shard ranges, one "meta" frame the embedding width and the
//	     plane's parameters, decode-error bound and fit-time bound, then one
//	     "embeddings", "reps", "dists" and "quant" frame each. The index
//	     loader rejects older headers with ErrVersion; every other kind
//	     still reads v1 on.
const Version uint32 = 7

// MinVersion is the oldest container-format version this build still reads.
const MinVersion uint32 = 1

// DefaultMaxFrameBytes is the sanity cap on a single frame's declared
// payload length. A frame claiming more is rejected with ErrFrameTooLarge
// before any allocation.
const DefaultMaxFrameBytes = 1 << 30

// readStep is the first size of a Reader's payload buffer, which then
// doubles, so a declared length far beyond the actual file size truncates
// after at most max(readStep, 2 × the bytes present) of memory.
const readStep = 1 << 20

// The decode-failure taxonomy. ErrBadMagic, ErrKind, and ErrVersion mean the
// caller has the wrong file; ErrChecksum, ErrTruncated, and ErrFrameTooLarge
// mean the right file was damaged; ErrMalformed means frames that verified
// intact describe an impossible artifact (crafted, or written by a broken
// build).
var (
	// ErrBadMagic marks input that is not a framed snapshot at all.
	ErrBadMagic = errors.New("snapshot: bad magic (not a snapshot file)")
	// ErrKind marks a valid snapshot of the wrong artifact type.
	ErrKind = errors.New("snapshot: wrong snapshot kind")
	// ErrVersion marks a snapshot written by an incompatible format version.
	ErrVersion = errors.New("snapshot: unsupported format version")
	// ErrChecksum marks a CRC mismatch: the file was damaged in place.
	ErrChecksum = errors.New("snapshot: checksum mismatch (file damaged)")
	// ErrTruncated marks a file that ends mid-structure: a torn write.
	ErrTruncated = errors.New("snapshot: truncated file")
	// ErrFrameTooLarge marks a declared frame length beyond the sanity cap.
	ErrFrameTooLarge = errors.New("snapshot: frame length exceeds sanity cap")
	// ErrMalformed marks intact frames whose contents are inconsistent: a
	// payload that does not decode, or shapes that disagree with each other.
	ErrMalformed = errors.New("snapshot: malformed contents")
)

// castagnoli is the CRC-32C table shared by writers and readers.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Writer emits a framed snapshot: NewWriter writes the magic and header,
// Frame/FrameFrom/Encode append sections, Close seals the file with the
// whole-file CRC trailer. It does not close the underlying writer.
type Writer struct {
	w       io.Writer
	fileCRC hash.Hash32
	err     error
}

// NewWriter starts a framed snapshot of the given kind on w, at the current
// format version.
func NewWriter(w io.Writer, kind string) (*Writer, error) {
	return NewWriterVersion(w, kind, Version)
}

// NewWriterVersion is NewWriter at an explicit format version in
// [MinVersion, Version]. Production writers always write Version; the knob
// exists so compatibility tests can fabricate files of every version this
// build claims to read.
func NewWriterVersion(w io.Writer, kind string, version uint32) (*Writer, error) {
	if len(kind) == 0 || len(kind) > 255 {
		return nil, fmt.Errorf("snapshot: kind must be 1..255 bytes, got %d", len(kind))
	}
	if version < MinVersion || version > Version {
		return nil, fmt.Errorf("snapshot: cannot write version %d (supported %d..%d)", version, MinVersion, Version)
	}
	sw := &Writer{w: w, fileCRC: crc32.New(castagnoli)}
	if err := sw.write(Magic[:]); err != nil {
		return nil, err
	}
	// Header: version, kind, header CRC.
	var hdr bytes.Buffer
	var v4 [4]byte
	binary.BigEndian.PutUint32(v4[:], version)
	hdr.Write(v4[:])
	hdr.WriteByte(byte(len(kind)))
	hdr.WriteString(kind)
	if err := sw.write(hdr.Bytes()); err != nil {
		return nil, err
	}
	binary.BigEndian.PutUint32(v4[:], crc32.Checksum(hdr.Bytes(), castagnoli))
	if err := sw.write(v4[:]); err != nil {
		return nil, err
	}
	return sw, nil
}

// write sends b to the underlying writer and folds it into the whole-file
// CRC, latching the first error.
func (sw *Writer) write(b []byte) error {
	if sw.err != nil {
		return sw.err
	}
	if _, err := sw.w.Write(b); err != nil {
		sw.err = fmt.Errorf("snapshot: write: %w", err)
		return sw.err
	}
	sw.fileCRC.Write(b) //nolint:errcheck // hash.Write never fails
	return nil
}

// Frame appends one named, checksummed section.
func (sw *Writer) Frame(name string, payload []byte) error {
	return sw.FrameFrom(name, len(payload), func(emit func([]byte) error) error { return emit(payload) })
}

// FrameFrom appends one named, checksummed section of n payload bytes that
// fill passes to emit piece by piece, in order, so a bulk array streams
// through a small buffer instead of being encoded whole. emit must not be
// called after fill returns, and the pieces must add up to exactly n bytes.
func (sw *Writer) FrameFrom(name string, n int, fill func(emit func([]byte) error) error) error {
	if sw.err != nil {
		return sw.err
	}
	if len(name) == 0 || len(name) > 255 {
		return fmt.Errorf("snapshot: frame name must be 1..255 bytes, got %d", len(name))
	}
	var hdr bytes.Buffer
	hdr.WriteByte(byte(len(name)))
	hdr.WriteString(name)
	var l8 [8]byte
	binary.BigEndian.PutUint64(l8[:], uint64(n))
	hdr.Write(l8[:])

	crc := crc32.New(castagnoli)
	crc.Write(hdr.Bytes()) //nolint:errcheck // hash.Write never fails
	if err := sw.write(hdr.Bytes()); err != nil {
		return err
	}
	written := 0
	err := fill(func(p []byte) error {
		written += len(p)
		crc.Write(p) //nolint:errcheck // hash.Write never fails
		return sw.write(p)
	})
	if err == nil && written != n {
		err = fmt.Errorf("snapshot: frame %q declared %d bytes and wrote %d", name, n, written)
	}
	if err != nil {
		// The frame is torn: latch the failure so Close never seals it.
		if sw.err == nil {
			sw.err = err
		}
		return err
	}
	var c4 [4]byte
	binary.BigEndian.PutUint32(c4[:], crc.Sum32())
	return sw.write(c4[:])
}

// Encode gob-serializes v and appends it as a frame named name.
func (sw *Writer) Encode(name string, v any) error {
	if sw.err != nil {
		return sw.err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("snapshot: encoding frame %q: %w", name, err)
	}
	return sw.Frame(name, buf.Bytes())
}

// Close seals the snapshot with the trailer: a zero name-length byte and the
// whole-file CRC. The underlying writer stays open.
func (sw *Writer) Close() error {
	if sw.err != nil {
		return sw.err
	}
	if err := sw.write([]byte{0}); err != nil {
		return err
	}
	sum := sw.fileCRC.Sum32()
	var c4 [4]byte
	binary.BigEndian.PutUint32(c4[:], sum)
	if sw.err == nil {
		if _, err := sw.w.Write(c4[:]); err != nil {
			sw.err = fmt.Errorf("snapshot: write: %w", err)
		}
	}
	return sw.err
}

// Reader decodes a framed snapshot. NewReader validates magic, version, and
// kind; Next/Decode walk the frames; the final Next returns io.EOF only
// after the whole-file CRC verifies.
type Reader struct {
	r        io.Reader
	fileCRC  hash.Hash32
	kind     string
	version  uint32
	maxFrame uint64
	// streaming marks a log reader (NewLogReader): the file is an append-only
	// frame stream with no trailer, so a clean EOF at a frame boundary is the
	// normal end of data rather than a truncation.
	streaming bool
	done      bool
	err       error
	// buf holds the last frame's payload; the next frame reuses it.
	buf []byte
}

// NewReader opens a framed snapshot, validating magic, header checksum,
// version, and artifact kind, with the default frame-size cap.
func NewReader(r io.Reader, kind string) (*Reader, error) {
	return NewReaderLimit(r, kind, DefaultMaxFrameBytes)
}

// NewReaderLimit is NewReader with an explicit per-frame sanity cap.
func NewReaderLimit(r io.Reader, kind string, maxFrame int64) (*Reader, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrameBytes
	}
	sr := &Reader{r: r, fileCRC: crc32.New(castagnoli), maxFrame: uint64(maxFrame)}
	var magic [8]byte
	if err := sr.readFull(magic[:], ErrBadMagic); err != nil {
		return nil, err
	}
	if magic != Magic {
		return nil, ErrBadMagic
	}
	var v4 [4]byte
	if err := sr.readFull(v4[:], ErrTruncated); err != nil {
		return nil, err
	}
	version := binary.BigEndian.Uint32(v4[:])
	hdrCRC := crc32.New(castagnoli)
	hdrCRC.Write(v4[:]) //nolint:errcheck // hash.Write never fails
	var kl [1]byte
	if err := sr.readFull(kl[:], ErrTruncated); err != nil {
		return nil, err
	}
	hdrCRC.Write(kl[:]) //nolint:errcheck // hash.Write never fails
	kindBuf := make([]byte, int(kl[0]))
	if err := sr.readFull(kindBuf, ErrTruncated); err != nil {
		return nil, err
	}
	hdrCRC.Write(kindBuf) //nolint:errcheck // hash.Write never fails
	var c4 [4]byte
	if err := sr.readFull(c4[:], ErrTruncated); err != nil {
		return nil, err
	}
	if binary.BigEndian.Uint32(c4[:]) != hdrCRC.Sum32() {
		return nil, fmt.Errorf("%w (header)", ErrChecksum)
	}
	// Checksum before semantics: only a header that arrived intact gets to
	// report a version or kind mismatch.
	if version < MinVersion || version > Version {
		return nil, fmt.Errorf("%w: file has v%d, this build reads v%d..v%d", ErrVersion, version, MinVersion, Version)
	}
	sr.version = version
	sr.kind = string(kindBuf)
	if sr.kind != kind {
		return nil, fmt.Errorf("%w: file holds %q, caller wants %q", ErrKind, sr.kind, kind)
	}
	return sr, nil
}

// Kind returns the artifact kind declared in the header.
func (sr *Reader) Kind() string { return sr.kind }

// Version returns the format version declared in the header, in
// [MinVersion, Version].
func (sr *Reader) Version() uint32 { return sr.version }

// readFull reads exactly len(b) bytes, folding them into the whole-file CRC
// and mapping EOFs to the given taxonomy error.
func (sr *Reader) readFull(b []byte, onEOF error) error {
	if _, err := io.ReadFull(sr.r, b); err != nil {
		if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
			return onEOF
		}
		return fmt.Errorf("snapshot: read: %w", err)
	}
	sr.fileCRC.Write(b) //nolint:errcheck // hash.Write never fails
	return nil
}

// Next returns the next frame. After the last frame it verifies the trailer
// CRC and returns io.EOF; any failure before that returns a taxonomy error.
// The payload is the reader's buffer: it is valid until the next call.
func (sr *Reader) Next() (name string, payload []byte, err error) {
	if sr.err != nil {
		return "", nil, sr.err
	}
	if sr.done {
		return "", nil, io.EOF
	}
	name, payload, err = sr.next()
	if err != nil && err != io.EOF {
		sr.err = err
	}
	return name, payload, err
}

func (sr *Reader) next() (string, []byte, error) {
	var nl [1]byte
	if err := sr.readFull(nl[:], ErrTruncated); err != nil {
		if sr.streaming && errors.Is(err, ErrTruncated) {
			// A log has no trailer: running out of bytes exactly at a frame
			// boundary is the normal end of an append-only stream. (A one-byte
			// read cannot end mid-structure, so ErrTruncated here always means
			// a clean zero-byte EOF.)
			sr.done = true
			return "", nil, io.EOF
		}
		return "", nil, err
	}
	if nl[0] == 0 {
		if sr.streaming {
			// Logs never write a trailer, so a zero name-length byte can only
			// be the torn beginning of a frame that was mid-write at a crash.
			return "", nil, fmt.Errorf("%w (torn log frame header)", ErrTruncated)
		}
		// Trailer: the whole-file CRC covers everything up to and including
		// the zero byte just consumed.
		want := sr.fileCRC.Sum32()
		var c4 [4]byte
		if _, err := io.ReadFull(sr.r, c4[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				return "", nil, ErrTruncated
			}
			return "", nil, fmt.Errorf("snapshot: read: %w", err)
		}
		if binary.BigEndian.Uint32(c4[:]) != want {
			return "", nil, fmt.Errorf("%w (whole file)", ErrChecksum)
		}
		sr.done = true
		return "", nil, io.EOF
	}

	frameCRC := crc32.New(castagnoli)
	frameCRC.Write(nl[:]) //nolint:errcheck // hash.Write never fails
	nameBuf := make([]byte, int(nl[0]))
	if err := sr.readFull(nameBuf, ErrTruncated); err != nil {
		return "", nil, err
	}
	frameCRC.Write(nameBuf) //nolint:errcheck // hash.Write never fails
	var l8 [8]byte
	if err := sr.readFull(l8[:], ErrTruncated); err != nil {
		return "", nil, err
	}
	frameCRC.Write(l8[:]) //nolint:errcheck // hash.Write never fails
	plen := binary.BigEndian.Uint64(l8[:])
	if plen > sr.maxFrame {
		return "", nil, fmt.Errorf("%w: frame %q declares %d bytes, cap %d",
			ErrFrameTooLarge, nameBuf, plen, sr.maxFrame)
	}
	// Read the payload into the one buffer every frame shares, growing it
	// only as bytes arrive: a declared length far beyond the actual data
	// truncates before the buffer outgrows max(readStep, 2 × the data).
	payload := sr.buf[:0]
	for uint64(len(payload)) < plen {
		if len(payload) == cap(payload) {
			payload = append(make([]byte, 0, min(plen, max(2*uint64(cap(payload)), readStep))), payload...)
		}
		n := min(int(plen), cap(payload))
		if err := sr.readFull(payload[len(payload):n], ErrTruncated); err != nil {
			return "", nil, err
		}
		payload = payload[:n]
	}
	sr.buf = payload
	frameCRC.Write(payload) //nolint:errcheck // hash.Write never fails
	var c4 [4]byte
	if err := sr.readFull(c4[:], ErrTruncated); err != nil {
		return "", nil, err
	}
	if binary.BigEndian.Uint32(c4[:]) != frameCRC.Sum32() {
		return "", nil, fmt.Errorf("%w (frame %q)", ErrChecksum, nameBuf)
	}
	return string(nameBuf), payload, nil
}

// Decode reads the next frame, requires it to be named name, and
// gob-decodes its payload into v.
func (sr *Reader) Decode(name string, v any) error {
	got, payload, err := sr.Next()
	if err == io.EOF {
		return fmt.Errorf("%w: missing frame %q", ErrTruncated, name)
	}
	if err != nil {
		return err
	}
	if got != name {
		return fmt.Errorf("%w: unexpected frame %q, want %q", ErrMalformed, got, name)
	}
	if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(v); err != nil {
		return fmt.Errorf("%w: decoding frame %q: %v", ErrMalformed, name, err)
	}
	return nil
}

// Drain walks any remaining frames through the trailer, so the whole-file
// CRC is verified even when the caller decoded every section it needed.
func (sr *Reader) Drain() error {
	for {
		_, _, err := sr.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// EncodeGob writes a single-section snapshot: one gob-encoded value framed
// as "data" under the given kind.
func EncodeGob(w io.Writer, kind string, v any) error {
	sw, err := NewWriter(w, kind)
	if err != nil {
		return err
	}
	if err := sw.Encode("data", v); err != nil {
		return err
	}
	return sw.Close()
}

// DecodeGob reads a single-section snapshot written by EncodeGob, verifying
// the whole-file checksum.
func DecodeGob(r io.Reader, kind string, v any) error {
	sr, err := NewReader(r, kind)
	if err != nil {
		return err
	}
	if err := sr.Decode("data", v); err != nil {
		return err
	}
	return sr.Drain()
}
