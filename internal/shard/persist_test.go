package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"hash/crc32"
	"io"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// buildSplit builds a TASTI-PT index (with its embedding model)
// over n night-street records at the given embedding width and splits it
// into shards.
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

// savedSplit returns the snapshot bytes of buildSplit(n, dim, shards).
func savedSplit(t testing.TB, n, dim, shards int) []byte {
	t.Helper()
	x, err := buildSplit(n, dim, shards)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
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

// malformed lists crafted snapshots whose every frame verifies but whose
// contents disagree — each must fail typed, never load or panic.
var crafted = []struct {
	name string
	edit edit
}{
	{"meta dim lies", editGob("shard.0.meta", func(m *shardMeta) { m.Dim++ })},
	{"meta dim zero", editGob("shard.0.meta", func(m *shardMeta) { m.Dim = 0 })},
	{"manifest K lies", editGob("manifest", func(m *manifest) { m.K++ })},
	{"manifest rows lie", editGob("manifest", func(m *manifest) { m.Shards[0].Hi--; m.Shards[1].Lo-- })},
	{"manifest total lies", editGob("manifest", func(m *manifest) { m.Total = 1 << 40; m.Shards[1].Hi = 1 << 40 })},
	{"embeddings short a row", editPayload("shard.0.embeddings", func(p []byte) []byte { return p[:len(p)-64] })},
	{"embeddings not a multiple", editPayload("shard.1.embeddings", func(p []byte) []byte { return append(p, 0, 0, 0) })},
	{"dists not a multiple", editPayload("shard.0.dists", func(p []byte) []byte { return p[:len(p)-3] })},
	{"reps short", editPayload("shard.1.reps", func(p []byte) []byte { return p[:len(p)-8] })},
	{"rep out of range", setRep("shard.0.reps", 1<<40)},
	{"representative out of range", editGob("manifest", func(m *manifest) { m.Reps = append(m.Reps, 1<<40) })},
	{"rep negative", setRep("shard.1.reps", -1)},
	{"quant codes short", editPayload("shard.1.quant", func(p []byte) []byte { return p[:len(p)-1] })},
	{"quant params short", editGob("shard.0.meta", func(m *shardMeta) { m.Quant.Scale = m.Quant.Scale[1:] })},
	{"quant error bound negative", editGob("shard.0.meta", func(m *shardMeta) { m.MaxErr = -1 })},
	{"quant params missing", editGob("shard.0.meta", func(m *shardMeta) { m.Quant = vecmath.QuantParams{} })},
	{"quant frame missing", dropFrame("shard.0.quant")},
	{"frames out of order", func(_ testing.TB, fs []frame) []frame {
		for i := range fs {
			if fs[i].name == "shard.0.reps" {
				fs[i], fs[i+1] = fs[i+1], fs[i]
				break
			}
		}
		return fs
	}},
	{"shard frames missing", func(_ testing.TB, fs []frame) []frame {
		out := fs[:0]
		for _, f := range fs {
			if !strings.HasPrefix(f.name, "shard.1.") {
				out = append(out, f)
			}
		}
		return out
	}},
	{"meta not gob", editPayload("shard.0.meta", func(p []byte) []byte { return p[:len(p)/2] })},
	{"embedder not gob", editPayload(embedderFrame, func(p []byte) []byte { return p[:len(p)/2] })},
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

// TestLoadRejectsMismatchedShards: shards that cannot serve together are
// refused at load — an embedder whose width differs from the embeddings, and
// a file spliced from two builds of different widths. Each used to load and
// panic at the next append or crack.
func TestLoadRejectsMismatchedShards(t *testing.T) {
	wide := framesOf(t, seedSnapshot())
	narrow := framesOf(t, savedSplit(t, 120, 5, 2))
	payload := func(fs []frame, name string) []byte {
		for _, f := range fs {
			if f.name == name {
				return f.payload
			}
		}
		t.Fatalf("no frame %q", name)
		return nil
	}
	var embedder, spliced []frame
	for _, f := range wide {
		switch {
		case f.name == embedderFrame:
			embedder = append(embedder, frame{f.name, payload(narrow, f.name)})
		case strings.HasPrefix(f.name, "shard.1."):
			spliced = append(spliced, frame{f.name, payload(narrow, f.name)})
			embedder = append(embedder, f)
		default:
			spliced = append(spliced, f)
			embedder = append(embedder, f)
		}
	}
	for what, fs := range map[string][]frame{"5-dim embedder over 8-dim shards": embedder, "8-dim and 5-dim shards": spliced} {
		_, err := Load(bytes.NewReader(assemble(t, snapshot.Version, fs)))
		if !errors.Is(err, snapshot.ErrMalformed) {
			t.Errorf("%s: err = %v, want ErrMalformed", what, err)
		}
	}
}

// TestIndexSnapshotBeforeV6Rejected: an index written under an older header
// — v4 kept a representative list and annotation map in every shard's meta,
// v5 could leave a shard without its quantized plane — is refused with
// ErrVersion: it is rebuilt, not misread.
func TestIndexSnapshotBeforeV6Rejected(t *testing.T) {
	for _, v := range []uint32{3, 4, 5} {
		old := assemble(t, v, framesOf(t, seedSnapshot()))
		if _, err := Load(bytes.NewReader(old)); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("Load of a v%d index: err = %v, want ErrVersion", v, err)
		}
	}
}

// TestIndexSnapshotWithoutPlaneMalformed: a v6 shard without its quantized
// plane — a meta with no plane parameters, or no "shard.<s>.quant" frame — is
// malformed, whichever shard it is.
func TestIndexSnapshotWithoutPlaneMalformed(t *testing.T) {
	for what, e := range map[string]edit{
		"shard 0 params": editGob("shard.0.meta", func(m *shardMeta) { m.Quant = vecmath.QuantParams{} }),
		"shard 1 params": editGob("shard.1.meta", func(m *shardMeta) { m.Quant = vecmath.QuantParams{} }),
		"shard 0 frame":  dropFrame("shard.0.quant"),
		"shard 1 frame":  dropFrame("shard.1.quant"),
	} {
		if _, err := Load(bytes.NewReader(craft(t, e))); !errors.Is(err, snapshot.ErrMalformed) {
			t.Errorf("no plane in %s: err = %v, want ErrMalformed", what, err)
		}
	}
}

// TestLoadedNeighborsShareOneBlock: a loaded shard's neighbor rows slice one
// rows×k array, as a freshly built table's do, so the objects a load
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
// allocation. With resealed set, every CRC is recomputed
// first, so mutations reach the frame decoders behind the checksums. The
// seeds are a two-shard snapshot with an embedder, its
// truncations and flips, non-snapshots, and the crafted shape lies above.
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
	if err := gob.NewEncoder(&bare).Encode(manifest{Total: 3, K: 3, Reps: []int{1, 2}}); err != nil {
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
			for _, sh := range v.shards {
				if err := sh.Validate(); err != nil {
					t.Fatalf("Load accepted a shard its own validation rejects: %v", err)
				}
			}
			if err := consistent(v.shards, v.w.emb); err != nil {
				t.Fatalf("Load accepted inconsistent shards: %v", err)
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
