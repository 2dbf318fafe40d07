package core_test

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"io"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// These fuzzers feed the index core builds, saved as one shard, to the one
// index codec (package shard) with its frames perturbed: arbitrary bytes,
// lying embedding shapes, and inconsistent quantized planes. Each must load
// as a consistent index or fail with a snapshot taxonomy error — never
// panic. internal/shard's FuzzLoadIndex does the same over a two-shard
// snapshot, resealing its checksums.

// fuzzSeed is a tiny index with its embedder and its snapshot,
// memoized because fuzz workers re-run the seed setup.
var fuzzSeed = sync.OnceValue(func() (s struct {
	ix   *core.Index
	data []byte
}) {
	ds, err := dataset.Generate("night-street", 120, 3)
	if err != nil {
		panic(err)
	}
	cfg := core.PretrainedConfig(10, 3)
	cfg.EmbedDim = 4
	cfg.K = 2
	if s.ix, err = core.Build(cfg, ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)); err != nil {
		panic(err)
	}
	x, err := shard.Split(s.ix, 1)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		panic(err)
	}
	s.data = buf.Bytes()
	return s
})

// indexManifest and planeMeta mirror the gob frames "manifest" and "meta"
// of an index snapshot (gob matches fields by name).
type indexManifest struct {
	Total       int
	Shards      int
	Stats       core.BuildStats
	K           int
	Reps        []int
	Annotations map[int]dataset.Annotation
}

type planeMeta struct {
	Dim    int
	Quant  struct{ Scale, Offset []float64 }
	MaxErr float64
	FitErr float64
}

// indexFrame is one frame of an index snapshot.
type indexFrame struct {
	name    string
	payload []byte
}

// reframe parses the seed snapshot, lets change edit its frames, and writes
// them back as an intact snapshot, every checksum valid.
func reframe(t *testing.T, change func(fs []indexFrame)) []byte {
	sr, err := snapshot.NewReader(bytes.NewReader(fuzzSeed().data), shard.IndexKind)
	if err != nil {
		t.Fatal(err)
	}
	var fs []indexFrame
	for {
		name, p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, indexFrame{name, bytes.Clone(p)})
	}
	change(fs)
	var buf bytes.Buffer
	sw, err := snapshot.NewWriter(&buf, shard.IndexKind)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range fs {
		if err := sw.Frame(f.name, f.payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// editGob re-encodes the gob frame name of fs through change.
func editGob[T any](t *testing.T, fs []indexFrame, name string, change func(*T)) {
	for i := range fs {
		if fs[i].name != name {
			continue
		}
		var v T
		if err := gob.NewDecoder(bytes.NewReader(fs[i].payload)).Decode(&v); err != nil {
			t.Fatal(err)
		}
		change(&v)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(v); err != nil {
			t.Fatal(err)
		}
		fs[i].payload = buf.Bytes()
		return
	}
	t.Fatalf("no frame %q", name)
}

// setPayload replaces the payload of frame name of fs.
func setPayload(t *testing.T, fs []indexFrame, name string, p []byte) {
	for i := range fs {
		if fs[i].name == name {
			fs[i].payload = p
			return
		}
	}
	t.Fatalf("no frame %q", name)
}

// loadIndex loads data with the index codec and fails the test on any
// error outside the snapshot taxonomy.
func loadIndex(t *testing.T, data []byte) (*shard.Index, error) {
	t.Helper()
	x, err := shard.Load(bytes.NewReader(data))
	if err == nil {
		return x, nil
	}
	for _, want := range []error{
		snapshot.ErrBadMagic, snapshot.ErrKind, snapshot.ErrVersion, snapshot.ErrChecksum,
		snapshot.ErrTruncated, snapshot.ErrFrameTooLarge, snapshot.ErrMalformed,
	} {
		if errors.Is(err, want) {
			return nil, err
		}
	}
	t.Fatalf("untyped load error: %v", err)
	return nil, err
}

// FuzzLoadIndex feeds arbitrary bytes to the index loader and requires it to
// terminate with a validated index or a typed error: no panic, no hang, no
// unbounded allocation. A stream that does not open with the snapshot magic
// — the bare-gob seed is what builds before the framed format wrote — is
// refused as ErrBadMagic before any of it is decoded.
func FuzzLoadIndex(f *testing.F) {
	valid := fuzzSeed().data
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	f.Add([]byte("TASTISNP"))
	f.Add([]byte("not a snapshot"))
	mut := bytes.Clone(valid)
	mut[len(mut)/3] ^= 0x10
	f.Add(mut)
	ix := fuzzSeed().ix
	var bare bytes.Buffer
	if err := gob.NewEncoder(&bare).Encode(indexManifest{Total: ix.NumRecords(), K: ix.Table.K, Reps: ix.Table.Reps}); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		x, err := loadIndex(t, data)
		if err == nil {
			for s := 0; s < x.NumShards(); s++ {
				if sh := x.Shard(s); sh.Table.Validate() != nil || sh.Embeddings.Rows() != sh.NumRecords() ||
					sh.Quant.Rows() != sh.NumRecords() || sh.Quant.Dim() != sh.Embeddings.Dim() {
					t.Fatalf("Load accepted shard %d over an inconsistent range", s)
				}
			}
		}
		if !bytes.HasPrefix(data, snapshot.Magic[:]) && !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("input without the snapshot magic: err = %v, want ErrBadMagic", err)
		}
	})
}

// FuzzLoadIndexFlat targets the flat embeddings frame: it re-frames the seed
// snapshot so the manifest declares rows records, the shard meta a dim-wide
// embedding, and the embeddings frame holds dataLen float64s (the seed's
// values first), exploring rows×dim overflow, truncated data and negative
// shapes. Load must return a consistent index or a typed error, and must
// accept the seed's own shape.
func FuzzLoadIndexFlat(f *testing.F) {
	ix := fuzzSeed().ix
	maxInt := int(^uint(0) >> 1)
	f.Add(ix.Embeddings.Rows(), ix.Embeddings.Dim(), len(ix.Embeddings.Data()))
	f.Add(0, 0, 0)
	f.Add(-1, 4, 8)
	f.Add(maxInt/2+1, 4, 8)
	f.Add(maxInt/3, 3, 9)
	f.Add(2, 3, 5)

	f.Fuzz(func(t *testing.T, rows, dim, dataLen int) {
		if dataLen < 0 || dataLen > 1<<16 {
			return // cap the backing array so the fuzzer can't OOM the host
		}
		emb := make([]byte, 8*dataLen)
		for i, v := range ix.Embeddings.Data()[:min(dataLen, len(ix.Embeddings.Data()))] {
			binary.LittleEndian.PutUint64(emb[8*i:], math.Float64bits(v))
		}
		data := reframe(t, func(fs []indexFrame) {
			editGob(t, fs, "manifest", func(m *indexManifest) { m.Total = rows })
			editGob(t, fs, "meta", func(m *planeMeta) { m.Dim = dim })
			setPayload(t, fs, "embeddings", emb)
		})
		x, err := loadIndex(t, data)
		seedShape := rows == ix.Embeddings.Rows() && dim == ix.Embeddings.Dim() && dataLen == rows*dim
		if err != nil {
			if seedShape {
				t.Fatalf("the seed's own shape was rejected: %v", err)
			}
			return
		}
		// The only accepted shape is one consistent with the neighbor table.
		got := x.Shard(0).Embeddings
		if got.Rows() != len(ix.Table.Neighbors) || got.Rows() != rows || got.Dim() != dim || rows*dim != dataLen ||
			x.Shard(0).Quant.Rows() != rows || x.Shard(0).Quant.Dim() != dim {
			t.Fatalf("accepted inconsistent shape %dx%d over %d entries as %dx%d",
				rows, dim, dataLen, got.Rows(), got.Dim())
		}
	})
}

// FuzzLoadIndexQuant targets the quantized plane: it re-frames the seed
// snapshot with fuzz-controlled parameter-array lengths, code-array length
// and decode-error bound (the seed's values first) and requires Load to
// return a plane that mirrors the embeddings or a typed error — ErrMalformed
// for a shard with no plane at all, which no index lacks. The seed's
// own parameters must load.
func FuzzLoadIndexQuant(f *testing.F) {
	ix := fuzzSeed().ix
	rows, dim, maxErr := ix.Embeddings.Rows(), ix.Embeddings.Dim(), ix.Quant.MaxErr()
	f.Add(dim, dim, rows*dim, maxErr)
	f.Add(dim-1, dim, rows*dim, maxErr)       // short scale array
	f.Add(dim, dim+1, rows*dim, maxErr)       // long offset array
	f.Add(dim, dim, rows*dim-1, maxErr)       // truncated codes
	f.Add(dim, dim, (rows+1)*dim, maxErr)     // a row more codes than embeddings
	f.Add(0, 0, 0, maxErr)                    // no plane at all: malformed
	f.Add(dim+1, dim+1, rows*(dim+1), maxErr) // a plane one column wider
	f.Add(dim, dim, rows*dim, -1.0)           // negative error bound
	f.Add(dim, dim, rows*dim, math.Inf(1))    // non-finite error bound

	f.Fuzz(func(t *testing.T, scaleLen, offsetLen, codesLen int, qmaxErr float64) {
		if scaleLen < 0 || scaleLen > 1<<12 || offsetLen < 0 || offsetLen > 1<<12 ||
			codesLen < 0 || codesLen > 1<<16 {
			return // cap array allocations so the fuzzer can't OOM the host
		}
		p := ix.Quant.Params()
		scale := make([]float64, scaleLen)
		for i := range scale {
			scale[i] = 0.5
		}
		copy(scale, p.Scale)
		offset := make([]float64, offsetLen)
		copy(offset, p.Offset)
		codes := make([]byte, codesLen)
		copy(codes, ix.Quant.Codes())
		data := reframe(t, func(fs []indexFrame) {
			editGob(t, fs, "meta", func(m *planeMeta) {
				m.Quant.Scale, m.Quant.Offset, m.MaxErr = scale, offset, qmaxErr
			})
			setPayload(t, fs, "quant", codes)
		})
		x, err := loadIndex(t, data)
		seedPlane := scaleLen == dim && offsetLen == dim && codesLen == rows*dim && qmaxErr == maxErr
		if scaleLen == 0 && codesLen == 0 && !errors.Is(err, snapshot.ErrMalformed) {
			t.Fatalf("a shard without a plane: err = %v, want ErrMalformed", err)
		}
		if err != nil {
			if seedPlane {
				t.Fatalf("the seed's own plane was rejected: %v", err)
			}
			return
		}
		// Anything accepted must be a plane that exactly mirrors the
		// embedding matrix, with internally consistent parts.
		sh := x.Shard(0)
		if !sh.Quant.Enabled() {
			t.Fatal("accepted a quant frame but returned a disabled plane")
		}
		if sh.Quant.Rows() != sh.Embeddings.Rows() || sh.Quant.Dim() != sh.Embeddings.Dim() {
			t.Fatalf("accepted a %dx%d plane over %dx%d embeddings",
				sh.Quant.Rows(), sh.Quant.Dim(), sh.Embeddings.Rows(), sh.Embeddings.Dim())
		}
		if codesLen != rows*dim || scaleLen != dim || offsetLen != dim || !(qmaxErr >= 0) || math.IsInf(qmaxErr, 0) {
			t.Fatalf("accepted inconsistent quant parts: %d/%d params, %d codes, error bound %v",
				scaleLen, offsetLen, codesLen, qmaxErr)
		}
	})
}
