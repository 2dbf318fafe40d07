package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/snapshot"
	"repro/internal/triplet"
	"repro/internal/vecmath"
)

// buildSplit builds a TASTI-PT index (with its embedding model) over n
// night-street records at the given embedding width and serves it over
// shards.
func buildSplit(n, dim, shards int) (*Index, error) {
	cfg := core.PretrainedConfig(n/10, 3)
	cfg.EmbedDim = dim
	cfg.K = 3
	return buildWith(cfg, n, shards)
}

// buildWith builds an index under cfg over n night-street records and serves
// it over shards.
func buildWith(cfg core.Config, n, shards int) (*Index, error) {
	ds, err := dataset.Generate("night-street", n, 3)
	if err != nil {
		return nil, err
	}
	ix, err := core.Build(cfg, ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
	if err != nil {
		return nil, err
	}
	return Split(ix, shards)
}

// splitCorpus is the corpus buildSplit(n, …) indexes.
func splitCorpus(n int) dataset.Corpus {
	return dataset.Corpus{Dataset: "night-street", Size: n, Seed: 3}
}

// seedSnapshot is the shared test and fuzz-seed snapshot: 2 shards, 8-dim,
// with an embedder. Memoized because fuzz workers re-run setup.
var seedSnapshot = sync.OnceValue(func() []byte {
	x, err := buildSplit(120, 8, 2)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// frame is one parsed container frame.
type frame struct {
	name    string
	payload []byte
}

// framesOf parses a snapshot into its frames.
func framesOf(t testing.TB, data []byte) []frame {
	t.Helper()
	sr, err := snapshot.NewReader(bytes.NewReader(data), IndexKind)
	if err != nil {
		t.Fatal(err)
	}
	var fs []frame
	for {
		name, p, err := sr.Next()
		if err == io.EOF {
			return fs
		}
		if err != nil {
			t.Fatal(err)
		}
		fs = append(fs, frame{name, bytes.Clone(p)})
	}
}

// assemble writes frames as an intact container of the given version.
func assemble(t testing.TB, version uint32, fs []frame) []byte {
	t.Helper()
	var buf bytes.Buffer
	sw, err := snapshot.NewWriterVersion(&buf, IndexKind, version)
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

// edit is a crafted change to a snapshot's frames.
type edit func(t testing.TB, fs []frame) []frame

// editGob re-encodes the gob frame name through change.
func editGob[T any](name string, change func(*T)) edit {
	return func(t testing.TB, fs []frame) []frame {
		for i, f := range fs {
			if f.name != name {
				continue
			}
			var v T
			if err := gob.NewDecoder(bytes.NewReader(f.payload)).Decode(&v); err != nil {
				t.Fatal(err)
			}
			change(&v)
			var buf bytes.Buffer
			if err := gob.NewEncoder(&buf).Encode(v); err != nil {
				t.Fatal(err)
			}
			fs[i].payload = buf.Bytes()
		}
		return fs
	}
}

// editPayload replaces frame name's payload with change's result.
func editPayload(name string, change func([]byte) []byte) edit {
	return func(_ testing.TB, fs []frame) []frame {
		for i, f := range fs {
			if f.name == name {
				fs[i].payload = change(f.payload)
			}
		}
		return fs
	}
}

// dropFrame removes frame name.
func dropFrame(name string) edit {
	return func(_ testing.TB, fs []frame) []frame {
		return slices.DeleteFunc(fs, func(f frame) bool { return f.name == name })
	}
}

// setRep writes rep as the first neighbor ID of frame name.
func setRep(name string, rep int64) edit {
	return editPayload(name, func(p []byte) []byte {
		binary.LittleEndian.PutUint64(p, uint64(rep))
		return p
	})
}

// narrowSnapshot is seedSnapshot's build at embedding width 5, whose
// embedder outputs another width than the seed's embeddings.
var narrowSnapshot = sync.OnceValue(func() []byte {
	x, err := buildSplit(120, 5, 2)
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// crafted lists crafted snapshots whose every frame verifies but whose
// contents disagree — each must fail typed, never load or panic.
var crafted = []struct {
	name string
	edit edit
}{
	{"meta dim lies", editGob(metaFrame, func(m *planeMeta) { m.Dim++ })},
	{"meta dim zero", editGob(metaFrame, func(m *planeMeta) { m.Dim = 0 })},
	{"manifest K lies", editGob(manifestFrame, func(m *manifest) { m.K++ })},
	{"manifest rows lie", editGob(manifestFrame, func(m *manifest) { m.Total-- })},
	{"manifest total lies", editGob(manifestFrame, func(m *manifest) { m.Total = 1 << 40 })},
	{"embeddings short a row", editPayload(embeddingsFrame, func(p []byte) []byte { return p[:len(p)-64] })},
	{"embeddings not a multiple", editPayload(embeddingsFrame, func(p []byte) []byte { return append(p, 0, 0, 0) })},
	{"dists not a multiple", editPayload(distsFrame, func(p []byte) []byte { return p[:len(p)-3] })},
	{"reps short", editPayload(repsFrame, func(p []byte) []byte { return p[:len(p)-8] })},
	{"rep out of range", setRep(repsFrame, 1<<40)},
	{"representative out of range", editGob(manifestFrame, func(m *manifest) { m.Reps = append(m.Reps, 1<<40) })},
	{"rep negative", setRep(repsFrame, -1)},
	{"quant codes short", editPayload(quantFrame, func(p []byte) []byte { return p[:len(p)-1] })},
	{"quant params short", editGob(metaFrame, func(m *planeMeta) { m.Quant.Scale = m.Quant.Scale[1:] })},
	{"quant error bound negative", editGob(metaFrame, func(m *planeMeta) { m.MaxErr = -1 })},
	{"quant params missing", editGob(metaFrame, func(m *planeMeta) { m.Quant = vecmath.QuantParams{} })},
	{"quant frame missing", dropFrame(quantFrame)},
	{"frames out of order", func(_ testing.TB, fs []frame) []frame {
		for i := range fs {
			if fs[i].name == repsFrame {
				fs[i], fs[i+1] = fs[i+1], fs[i]
				break
			}
		}
		return fs
	}},
	{"meta frame missing", dropFrame(metaFrame)},
	{"meta not gob", editPayload(metaFrame, func(p []byte) []byte { return p[:len(p)/2] })},
	{"embedder not gob", editPayload(embedderFrame, func(p []byte) []byte { return p[:len(p)/2] })},
	{"quant fit bound past the error bound", editGob(metaFrame, func(m *planeMeta) { m.FitErr = 2*m.MaxErr + 1 })},
	{"manifest shards zero", editGob(manifestFrame, func(m *manifest) { m.Shards = 0 })},
	{"manifest shards past the records", editGob(manifestFrame, func(m *manifest) { m.Shards = m.Total + 1 })},
	{"embedder of another width", func(t testing.TB, fs []frame) []frame {
		for _, f := range framesOf(t, narrowSnapshot()) {
			if f.name == embedderFrame {
				return editPayload(embedderFrame, func([]byte) []byte { return f.payload })(t, fs)
			}
		}
		t.Fatal("the narrow snapshot has no embedder")
		return nil
	}},
}

// craft applies e to a copy of the seed snapshot's frames.
func craft(t testing.TB, e edit) []byte {
	return assemble(t, snapshot.Version, e(t, framesOf(t, seedSnapshot())))
}

// taxonomy is the snapshot error taxonomy every load failure belongs to.
var taxonomy = []error{
	snapshot.ErrBadMagic, snapshot.ErrKind, snapshot.ErrVersion, snapshot.ErrChecksum,
	snapshot.ErrTruncated, snapshot.ErrFrameTooLarge, snapshot.ErrMalformed,
}

// requireTyped fails unless err belongs to the taxonomy.
func requireTyped(t testing.TB, err error, what string) {
	t.Helper()
	if err == nil {
		t.Fatalf("%s: loaded successfully", what)
	}
	for _, want := range taxonomy {
		if errors.Is(err, want) {
			return
		}
	}
	t.Fatalf("%s: untyped error %v", what, err)
}

// loadTyped asserts that loading data fails with a taxonomy error.
func loadTyped(t testing.TB, data []byte, what string) {
	t.Helper()
	_, err := Load(bytes.NewReader(data))
	requireTyped(t, err, what)
}

// frameBoundaries parses a framed snapshot's structure and returns every
// frame-boundary byte offset: the end of the header, of each frame, and of
// the trailer.
func frameBoundaries(t *testing.T, data []byte) []int {
	t.Helper()
	off := len(snapshot.Magic) + 4 // magic + version
	off += 1 + int(data[off]) + 4  // kindLen + kind + header CRC
	bounds := []int{off}
	for off < len(data) {
		nameLen := int(data[off])
		if nameLen == 0 { // trailer
			return append(bounds, off+1+4)
		}
		off += 1 + nameLen
		off += 8 + int(binary.BigEndian.Uint64(data[off:off+8])) + 4
		bounds = append(bounds, off)
	}
	return bounds
}

// reseal recomputes every CRC of a framed snapshot as far as its structure
// parses, so a mutation behind the checksums reaches the decoders.
func reseal(data []byte) []byte {
	b := bytes.Clone(data)
	sum := func(p []byte) uint32 { return crc32.Checksum(p, crc32.MakeTable(crc32.Castagnoli)) }
	off := len(snapshot.Magic) + 4
	if off >= len(b) || off+1+int(b[off])+4 > len(b) {
		return b
	}
	off += 1 + int(b[off])
	binary.BigEndian.PutUint32(b[off:], sum(b[len(snapshot.Magic):off]))
	off += 4
	for off < len(b) {
		if b[off] == 0 {
			if off+5 <= len(b) {
				binary.BigEndian.PutUint32(b[off+1:], sum(b[:off+1]))
			}
			return b
		}
		start := off
		off += 1 + int(b[off])
		if off+8 > len(b) {
			return b
		}
		n := binary.BigEndian.Uint64(b[off:])
		off += 8
		if n > uint64(len(b)-off) || off+int(n)+4 > len(b) {
			return b
		}
		off += int(n)
		binary.BigEndian.PutUint32(b[off:], sum(b[start:off]))
		off += 4
	}
	return b
}

// TestCorruptIndexTruncationAtFrameBoundaries truncates a saved index at
// every frame boundary (and one byte to each side) and requires a typed
// error each time — a torn write can never masquerade as a valid index.
func TestCorruptIndexTruncationAtFrameBoundaries(t *testing.T) {
	data := seedSnapshot()
	for _, b := range frameBoundaries(t, data) {
		for _, cut := range []int{b - 1, b} {
			if cut >= 0 && cut < len(data) {
				loadTyped(t, data[:cut], "truncation")
			}
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
	data := seedSnapshot()
	mut := bytes.Clone(data)
	flip := func(i, bit int) {
		mut[i] ^= 1 << bit
		loadTyped(t, mut, "bit flip")
		mut[i] ^= 1 << bit
	}
	edge := min(64, len(data))
	for i := 0; i < edge; i++ { // structural head: magic, header, manifest
		for bit := 0; bit < 8; bit++ {
			flip(i, bit)
		}
	}
	for i := len(data) - edge; i < len(data); i++ { // tail: embedder, trailer CRC
		for bit := 0; bit < 8; bit++ {
			flip(i, bit)
		}
	}
	for i := edge; i < len(data)-edge; i += 13 { // bulk sweep
		flip(i, i%8)
	}
}

// TestFlatFrameShapeMismatchRejected pins the flat-frame validation: a
// snapshot whose frames all verify but whose shapes disagree — a lying
// rows×dim or n×k declaration, a frame length that is not a multiple of its
// element width, an out-of-range representative — fails with a typed error
// from Load, never loads or panics.
func TestFlatFrameShapeMismatchRejected(t *testing.T) {
	for _, tc := range crafted {
		loadTyped(t, craft(t, tc.edit), tc.name)
	}
	if _, err := Load(bytes.NewReader(craft(t, func(_ testing.TB, fs []frame) []frame { return fs }))); err != nil {
		t.Fatalf("re-assembled intact snapshot: %v", err)
	}
}

// TestIndexSnapshotBeforeV7Rejected: an index written under an older header
// — v6 wrote every shard's arrays as frames of their own, v5 could leave a
// shard without its quantized plane, v4 kept a representative list and
// annotation map in every shard's meta — is refused with ErrVersion: it is
// rebuilt, not misread.
func TestIndexSnapshotBeforeV7Rejected(t *testing.T) {
	for _, v := range []uint32{3, 4, 5, 6} {
		old := assemble(t, v, framesOf(t, seedSnapshot()))
		if _, err := Load(bytes.NewReader(old)); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("Load of a v%d index: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestIndexSnapshotWithoutPlaneMalformed: an index without its quantized
// plane — a meta with no plane parameters, or no "quant" frame — is
// malformed.
func TestIndexSnapshotWithoutPlaneMalformed(t *testing.T) {
	for what, e := range map[string]edit{
		"params": editGob(metaFrame, func(m *planeMeta) { m.Quant = vecmath.QuantParams{} }),
		"frame":  dropFrame(quantFrame),
	} {
		if _, err := Load(bytes.NewReader(craft(t, e))); !errors.Is(err, snapshot.ErrMalformed) {
			t.Errorf("no plane %s: err = %v, want ErrMalformed", what, err)
		}
	}
}

// TestLoadedNeighborsShareOneBlock: a loaded index's neighbor rows slice one
// total×k array, as a freshly built table's do, so the objects a load
// allocates do not grow with the record count.
func TestLoadedNeighborsShareOneBlock(t *testing.T) {
	allocs := func(n int) float64 {
		ds, err := dataset.Generate("night-street", n, 3)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(core.PretrainedConfig(20, 3), ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
		if err != nil {
			t.Fatal(err)
		}
		x, err := Split(ix, 1)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(400), allocs(1600); large-small > 100 {
		t.Fatalf("a load allocates %.0f objects at 400 records and %.0f at 1600", small, large)
	}
}

// FuzzLoadIndex feeds arbitrary bytes to Load and requires it to terminate
// with a consistent index or a typed error: no panic, no hang, no unbounded
// allocation. With resealed set, every CRC is recomputed first, so mutations
// reach the frame decoders behind the checksums. The seeds are a two-shard v7
// snapshot with an embedder, its truncations and flips, non-snapshots, and
// the crafted shape lies above.
func FuzzLoadIndex(f *testing.F) {
	valid := seedSnapshot()
	f.Add(valid, false)
	f.Add(valid[:len(valid)/2], false)
	f.Add(valid[:7], false)
	f.Add([]byte{}, false)
	f.Add([]byte("TASTISNP"), false)
	f.Add([]byte("not a snapshot"), false)
	mut := bytes.Clone(valid)
	mut[len(mut)/3] ^= 0x10
	f.Add(mut, false)
	var bare bytes.Buffer // what builds before the framed format wrote
	if err := gob.NewEncoder(&bare).Encode(manifest{Total: 3, Shards: 1, K: 3, Reps: []int{1, 2}}); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes(), false)
	f.Add(mut, true)
	for _, tc := range crafted {
		f.Add(craft(f, tc.edit), true)
	}

	f.Fuzz(func(t *testing.T, data []byte, resealed bool) {
		if resealed {
			data = reseal(data)
		}
		x, err := Load(bytes.NewReader(data))
		if err != nil {
			requireTyped(t, err, "fuzzed snapshot")
		} else {
			v := x.Pin()
			if err := v.validate(); err != nil {
				t.Fatalf("Load accepted an index its own validation rejects: %v", err)
			}
			if emb := v.w.emb; emb != nil && emb.Dim() != v.emb.Dim() {
				t.Fatalf("Load accepted a %d-dim embedder over %d-dim embeddings", emb.Dim(), v.emb.Dim())
			}
		}
		if !bytes.HasPrefix(data, snapshot.Magic[:]) && !errors.Is(err, snapshot.ErrBadMagic) {
			t.Fatalf("input without the snapshot magic: err = %v, want ErrBadMagic", err)
		}
	})
}

// seedVersion is seedSnapshot loaded: the shapes and values the frame
// fuzzers below start from.
var seedVersion = sync.OnceValue(func() *Version {
	x, err := Load(bytes.NewReader(seedSnapshot()))
	if err != nil {
		panic(err)
	}
	return x.Pin()
})

// FuzzLoadIndexFlat targets the embeddings frame: it re-frames the seed
// snapshot so the manifest declares rows records, the meta a dim-wide
// embedding, and the embeddings frame holds dataLen float64s (the seed's
// values first), exploring rows×dim overflow, truncated data and negative
// shapes. Load must return a consistent index or a typed error, and must
// accept the seed's own shape.
func FuzzLoadIndexFlat(f *testing.F) {
	seed := seedVersion().emb
	maxInt := int(^uint(0) >> 1)
	f.Add(seed.Rows(), seed.Dim(), len(seed.Data()))
	f.Add(0, 0, 0)
	f.Add(-1, 4, 8)
	f.Add(maxInt/2+1, 4, 8)
	f.Add(maxInt/3, 3, 9)
	f.Add(2, 3, 5)
	f.Add(maxInt/4+1, 8, 0) // rows×dim wraps to zero

	f.Fuzz(func(t *testing.T, rows, dim, dataLen int) {
		if dataLen < 0 || dataLen > 1<<16 {
			return // cap the backing array so the fuzzer can't OOM the host
		}
		emb := make([]byte, 8*dataLen)
		for i, x := range seed.Data()[:min(dataLen, len(seed.Data()))] {
			binary.LittleEndian.PutUint64(emb[8*i:], math.Float64bits(x))
		}
		x, err := Load(bytes.NewReader(craft(t, func(t testing.TB, fs []frame) []frame {
			fs = editGob(manifestFrame, func(m *manifest) { m.Total = rows })(t, fs)
			fs = editGob(metaFrame, func(m *planeMeta) { m.Dim = dim })(t, fs)
			return editPayload(embeddingsFrame, func([]byte) []byte { return emb })(t, fs)
		})))
		if err != nil {
			requireTyped(t, err, "reshaped embeddings")
			if rows == seed.Rows() && dim == seed.Dim() && dataLen == rows*dim {
				t.Fatalf("the seed's own shape was rejected: %v", err)
			}
			return
		}
		// The only accepted shape is one consistent with the neighbor table.
		if v := x.Pin(); v.emb.Rows() != rows || v.emb.Dim() != dim || rows*dim != dataLen || v.validate() != nil {
			t.Fatalf("accepted inconsistent shape %dx%d over %d entries as %dx%d",
				rows, dim, dataLen, v.emb.Rows(), v.emb.Dim())
		}
	})
}

// FuzzLoadIndexQuant targets the quantized plane: it re-frames the seed
// snapshot with fuzz-controlled parameter-array lengths, code-array length
// and decode-error bound (the seed's values first) and requires Load to
// return a plane that mirrors the embeddings or a typed error — ErrMalformed
// for an index with no plane at all, which no index lacks. The seed's own
// parameters must load.
func FuzzLoadIndexQuant(f *testing.F) {
	seed := seedVersion().quant
	rows, dim, maxErr := seed.Rows(), seed.Dim(), seed.MaxErr()
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
		scale := make([]float64, scaleLen)
		for i := range scale {
			scale[i] = 0.5
		}
		copy(scale, seed.Params().Scale)
		offset := make([]float64, offsetLen)
		copy(offset, seed.Params().Offset)
		codes := make([]byte, codesLen)
		copy(codes, seed.Codes())
		x, err := Load(bytes.NewReader(craft(t, func(t testing.TB, fs []frame) []frame {
			fs = editGob(metaFrame, func(m *planeMeta) {
				m.Quant.Scale, m.Quant.Offset, m.MaxErr = scale, offset, qmaxErr
			})(t, fs)
			return editPayload(quantFrame, func([]byte) []byte { return codes })(t, fs)
		})))
		if scaleLen == 0 && codesLen == 0 && !errors.Is(err, snapshot.ErrMalformed) {
			t.Fatalf("an index without a plane: err = %v, want ErrMalformed", err)
		}
		if err != nil {
			requireTyped(t, err, "re-coded plane")
			if scaleLen == dim && offsetLen == dim && codesLen == rows*dim && qmaxErr == maxErr {
				t.Fatalf("the seed's own plane was rejected: %v", err)
			}
			return
		}
		// Anything accepted must be a plane that exactly mirrors the
		// embedding matrix, with internally consistent parts.
		if v := x.Pin(); v.validate() != nil {
			t.Fatalf("accepted a %dx%d plane over %dx%d embeddings",
				v.quant.Rows(), v.quant.Dim(), v.emb.Rows(), v.emb.Dim())
		}
		if codesLen != rows*dim || scaleLen != dim || offsetLen != dim || !(qmaxErr >= 0) || math.IsInf(qmaxErr, 0) {
			t.Fatalf("accepted inconsistent quant parts: %d/%d params, %d codes, error bound %v",
				scaleLen, offsetLen, codesLen, qmaxErr)
		}
	})
}

// sameFloats reports whether a and b hold the same float64 bits.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

// sameState fails unless got holds want's state bit for bit: view count,
// build stats, annotations, embeddings, table, the plane's codes, parameters
// and both error bounds, and whether an embedding model comes with it.
func sameState(t *testing.T, at string, got, want *Version) {
	t.Helper()
	if got.n != want.n || !reflect.DeepEqual(got.Stats, want.Stats) || !reflect.DeepEqual(got.anns, want.anns) ||
		(got.w.emb != nil) != (want.w.emb != nil) {
		t.Fatalf("%s: %d views, stats %+v, %d annotations, model %v; want %d, %+v, %d, %v", at, got.n, got.Stats,
			len(got.anns), got.w.emb != nil, want.n, want.Stats, len(want.anns), want.w.emb != nil)
	}
	if got.emb.Dim() != want.emb.Dim() || !sameFloats(got.emb.Data(), want.emb.Data()) {
		t.Fatalf("%s: embedding bits differ", at)
	}
	if got.table.K != want.table.K || !slices.Equal(got.table.Reps, want.table.Reps) ||
		!slices.EqualFunc(got.table.Neighbors, want.table.Neighbors, func(a, b []cluster.Neighbor) bool {
			return slices.EqualFunc(a, b, func(x, y cluster.Neighbor) bool {
				return x.Rep == y.Rep && math.Float64bits(x.Dist) == math.Float64bits(y.Dist)
			})
		}) {
		t.Fatalf("%s: table differs", at)
	}
	gq, wq := got.quant, want.quant
	if gq.Widened() != wq.Widened() || !slices.Equal(gq.Codes(), wq.Codes()) ||
		!sameFloats([]float64{gq.MaxErr(), gq.FitErr()}, []float64{wq.MaxErr(), wq.FitErr()}) ||
		!sameFloats(gq.Params().Scale, wq.Params().Scale) || !sameFloats(gq.Params().Offset, wq.Params().Offset) {
		t.Fatalf("%s: plane differs", at)
	}
}

// TestPersistRoundTrip: Load restores every bit Save wrote (sameState) over
// an index grown by a drifted append, so its plane has widened, and a crack,
// with a pretrained embedding model, a triplet-trained one and none. A
// restored model appends as the saved one does — the invariant WAL replay
// after a restart rests on — a crack prunes through the restored plane as
// through the saved one, and the loaded index propagates at four workers what
// the saved one does at one.
func TestPersistRoundTrip(t *testing.T) {
	more, err := dataset.Generate("night-street", 20, 9)
	if err != nil {
		t.Fatal(err)
	}
	drifted := make([][]float64, more.Len())
	for i, r := range more.Records {
		drifted[i] = slices.Clone(r.Features)
		for d := range drifted[i] {
			drifted[i][d] = drifted[i][d]*3 + 5
		}
	}
	for _, model := range []string{"pretrained", "trained", "none"} {
		cfg := core.PretrainedConfig(30, 3)
		if model == "trained" {
			cfg = core.DefaultConfig(60, 30, triplet.VideoBucketKey(0.5), 3)
			cfg.Train = triplet.DefaultConfig(cfg.EmbedDim, cfg.Seed)
			cfg.Train.Steps = 120
		}
		x, err := buildWith(cfg, 300, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := x.AppendRecords(drifted[:10]); err != nil {
			t.Fatal(err)
		}
		x.CrackAll(map[int]dataset.Annotation{7: more.Truth[0], 305: more.Truth[5]})
		if model == "none" {
			x.rewire(func(w *wiring) { w.emb = nil })
		}
		if !x.Pin().quant.Widened() {
			t.Fatalf("%s: the drifted append did not widen the plane", model)
		}
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			t.Fatal(err)
		}
		loaded, err := Load(&buf)
		if err != nil {
			t.Fatal(err)
		}
		sameState(t, model+": loaded", loaded.Pin(), x.Pin())
		for _, ix := range []*Index{x, loaded} {
			if _, err := ix.AppendRecords(drifted[10:]); (err != nil) != (model == "none") {
				t.Fatalf("%s: append: %v", model, err)
			}
			ix.Crack(123, more.Truth[1])
		}
		sameState(t, model+": appended and cracked after the load", loaded.Pin(), x.Pin())
		loaded.SetParallelism(4)
		score := core.CountScore("car")
		gw, _ := loaded.Propagate(score)
		ww, _ := x.Propagate(score)
		gs, gd, _ := loaded.PropagateNearest(score)
		ws, wd, _ := x.PropagateNearest(score)
		if !sameFloats(gw, ww) || !sameFloats(gs, ws) || !sameFloats(gd, wd) {
			t.Fatalf("%s: the loaded index propagates otherwise", model)
		}
	}
}

// TestSnapshotNamesItsCorpus: an index names the corpus it was built over
// through appends, cracks, saves and loads, and a snapshot serves only that
// corpus (CheckCorpus). An index that names none serves none.
func TestSnapshotNamesItsCorpus(t *testing.T) {
	x, err := buildSplit(120, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	own := splitCorpus(120)
	extra, err := dataset.Generate("night-street", 3, 9)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := x.AppendRecords([][]float64{extra.Records[0].Features, extra.Records[1].Features, extra.Records[2].Features}); err != nil {
		t.Fatal(err)
	}
	x.Crack(121, dataset.VideoAnnotation{})
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Pin().CheckCorpus(own); err != nil {
		t.Fatalf("the appended, cracked and reloaded index: %v", err)
	}
	for _, other := range []dataset.Corpus{
		{Dataset: "night-street", Size: 120, Seed: 4},
		{Dataset: "night-street", Size: 121, Seed: 3},
		{Dataset: "wikisql", Size: 120, Seed: 3},
		{},
	} {
		if err := loaded.Pin().CheckCorpus(other); !errors.Is(err, ErrCorpus) {
			t.Errorf("CheckCorpus(%+v): %v, want ErrCorpus", other, err)
		}
	}

	// A snapshot that names no corpus serves none.
	anonymous := craft(t, editGob("manifest", func(m *manifest) { m.Stats.Corpus = dataset.Corpus{} }))
	unnamed, err := Load(bytes.NewReader(anonymous))
	if err != nil {
		t.Fatal(err)
	}
	if err := unnamed.Pin().CheckCorpus(own); !errors.Is(err, ErrCorpus) {
		t.Errorf("an index naming no corpus: %v, want ErrCorpus", err)
	}
}
