package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// buildSplit builds a TASTI-PT index (with its embedding model) over n
// night-street records at the given embedding width and serves it over
// shards.
func buildSplit(n, dim, shards int) (*Index, error) {
	ds, err := dataset.Generate("night-street", n, 3)
	if err != nil {
		return nil, err
	}
	cfg := core.PretrainedConfig(n/10, 3)
	cfg.EmbedDim = dim
	cfg.K = 3
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
