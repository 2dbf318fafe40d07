package shard

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// IndexKind is the framed-container artifact type of an index snapshot —
// the only one.
const IndexKind = "tasti-shard-index"

// layoutVersion is the first container version with this layout: one record
// range, written as one frame per array; an older index snapshot is rebuilt,
// not converted.
const layoutVersion = 7

// The container holds these frames in this order, then the optional
// embedder (an embed.Snapshot). Bulk frames are little-endian fixed-width
// arrays whose lengths the manifest and the meta fix.
const (
	manifestFrame   = "manifest"
	metaFrame       = "meta"       // gob planeMeta
	embeddingsFrame = "embeddings" // total×dim float64
	repsFrame       = "reps"       // total×k int64 representative IDs
	distsFrame      = "dists"      // total×k float64 distances
	quantFrame      = "quant"      // total×dim uint8 codes
	embedderFrame   = "embedder"
)

// manifest is the first frame: the corpus size, the shard count, the build
// stats, which name the corpus the index was built over, the table depth K,
// the representative list and their annotations. Every neighbor row holds
// exactly k = min(K, len(Reps)) entries (cluster.Table.Validate).
type manifest struct {
	Total       int
	Shards      int
	Stats       core.BuildStats
	K           int
	Reps        []int
	Annotations map[int]dataset.Annotation
}

// planeMeta is the embedding width and the quantized plane's parameters, its
// decode-error bound (appends widen it) and that bound as the fit left it,
// so a loaded plane knows whether it has widened (QuantMatrix.Widened).
type planeMeta struct {
	Dim    int
	Quant  vecmath.QuantParams
	MaxErr float64
	FitErr float64
}

// ErrCorpus marks an index snapshot that names another corpus than the one
// it is read to serve, or none: its tables and annotations describe other
// records, whatever their count.
var ErrCorpus = errors.New("shard: index snapshot of another corpus")

// checkCorpus refuses an index built over got for the corpus want, and any
// index that names no corpus.
func checkCorpus(got, want dataset.Corpus) error {
	if got == (dataset.Corpus{}) || got != want {
		return fmt.Errorf("%w: the index names %+v, the corpus is %+v", ErrCorpus, got, want)
	}
	return nil
}

// CheckCorpus reports whether v was built over corpus: nil, or an error
// wrapping ErrCorpus. A loaded snapshot should pass it before it serves.
func (v *Version) CheckCorpus(corpus dataset.Corpus) error {
	return checkCorpus(v.Stats.Corpus, corpus)
}

// malformed wraps a content error of an intact file in the taxonomy.
func malformed(format string, args ...any) error {
	return fmt.Errorf("%w: %s", snapshot.ErrMalformed, fmt.Sprintf(format, args...))
}

// validate checks the manifest describes a shard count the records can
// fill, a table depth, and representatives inside the corpus.
func (m manifest) validate() error {
	if m.Shards < 1 || m.Shards > m.Total || m.K < 0 {
		return malformed("manifest with %d records in %d shards at K %d", m.Total, m.Shards, m.K)
	}
	for _, rep := range m.Reps {
		if rep < 0 || rep >= m.Total {
			return malformed("representative %d outside the corpus [0,%d)", rep, m.Total)
		}
	}
	return nil
}

// saveChunkWords is how many 8-byte words a save encodes at a time: a bulk
// frame streams through one 64 KiB buffer, whatever the record count.
const saveChunkWords = 8 << 10

// Save serializes the index as one framed container (layout above). Each
// bulk array streams through one small buffer reused across frames. The
// version is immutable, so the written state is consistent however long the
// write takes and whatever is published meanwhile.
func (v *Version) Save(w io.Writer) error {
	if err := v.save(w); err != nil {
		return fmt.Errorf("shard: saving index: %w", err)
	}
	return nil
}

func (v *Version) save(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, IndexKind)
	if err != nil {
		return err
	}
	t, emb := v.table, v.emb.Data()
	man := manifest{Total: v.NumRecords(), Shards: v.n, Stats: v.Stats, K: t.K, Reps: t.Reps, Annotations: v.anns}
	if err := sw.Encode(manifestFrame, man); err != nil {
		return err
	}
	meta := planeMeta{Dim: v.emb.Dim(), Quant: v.quant.Params(), MaxErr: v.quant.MaxErr(), FitErr: v.quant.FitErr()}
	if err := sw.Encode(metaFrame, meta); err != nil {
		return err
	}
	chunk := make([]byte, 8*saveChunkWords)
	// words frames n 8-byte little-endian words, saveChunkWords at a time:
	// put(dst, lo) encodes words lo, lo+1, ... into dst. A call per chunk,
	// not per word, keeps the encoding loops free of indirect calls.
	words := func(name string, n int, put func(dst []byte, lo int)) error {
		return sw.FrameFrom(name, 8*n, func(emit func([]byte) error) error {
			for lo := 0; lo < n; lo += saveChunkWords {
				b := chunk[:8*(min(lo+saveChunkWords, n)-lo)]
				put(b, lo)
				if err := emit(b); err != nil {
					return err
				}
			}
			return nil
		})
	}
	k := min(t.K, len(t.Reps))
	// neighbors encodes entries lo, lo+1, ... of the rows laid end to end.
	neighbors := func(word func(cluster.Neighbor) uint64) func(dst []byte, lo int) {
		return func(dst []byte, lo int) {
			for j := 0; j < len(dst)/8; j++ {
				binary.LittleEndian.PutUint64(dst[8*j:], word(t.Neighbors[(lo+j)/k][(lo+j)%k]))
			}
		}
	}
	if err := words(embeddingsFrame, len(emb), func(dst []byte, lo int) {
		for j, x := range emb[lo : lo+len(dst)/8] {
			binary.LittleEndian.PutUint64(dst[8*j:], math.Float64bits(x))
		}
	}); err != nil {
		return err
	}
	if err := words(repsFrame, len(t.Neighbors)*k, neighbors(func(nb cluster.Neighbor) uint64 { return uint64(nb.Rep) })); err != nil {
		return err
	}
	if err := words(distsFrame, len(t.Neighbors)*k, neighbors(func(nb cluster.Neighbor) uint64 { return math.Float64bits(nb.Dist) })); err != nil {
		return err
	}
	if err := sw.Frame(quantFrame, v.quant.Codes()); err != nil {
		return err
	}
	if v.w.emb != nil {
		es, err := embed.NewSnapshot(v.w.emb)
		if err != nil {
			// Degrade to the historic contract (restores with no embedder, so
			// no appends after a restart) instead of failing the save.
			slog.Warn("shard: index snapshot omits the embedding model; appends will be unavailable after a restore", "err", err.Error())
		} else if err := sw.Encode(embedderFrame, es); err != nil {
			return err
		}
	}
	return sw.Close()
}

// Load deserializes an index saved with Save, verifying every frame and the
// whole-file checksum and validating the arrays against the manifest and
// each other before any of it is trusted; every failure carries the snapshot
// error taxonomy. The restored index has default parallelism and no
// telemetry; callers wire both afterwards.
func Load(r io.Reader) (*Index, error) {
	v, emb, err := load(r)
	if err != nil {
		return nil, fmt.Errorf("shard: loading index: %w", err)
	}
	return newIndex(wiring{emb: emb}, v), nil
}

// load walks a snapshot through its trailer, decoding the record range and
// the embedder.
func load(r io.Reader) (v *Version, emb embed.Embedder, err error) {
	sr, err := snapshot.NewReader(r, IndexKind)
	if err != nil {
		return nil, nil, err
	}
	if ver := sr.Version(); ver < layoutVersion {
		return nil, nil, fmt.Errorf("%w: index snapshot v%d predates the v%d layout; rebuild it",
			snapshot.ErrVersion, ver, layoutVersion)
	}
	var man manifest
	if err := sr.Decode(manifestFrame, &man); err != nil {
		return nil, nil, err
	}
	if err := man.validate(); err != nil {
		return nil, nil, err
	}
	if man.Annotations == nil {
		man.Annotations = map[int]dataset.Annotation{}
	}
	if v, err = readRange(sr, man); err != nil {
		return nil, nil, err
	}
	for {
		name, p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, nil, err
		}
		// Any frame but the embedder is an unknown trailing frame, skipped
		// for forward compatibility.
		if name == embedderFrame {
			var es embed.Snapshot
			if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&es); err != nil {
				return nil, nil, malformed("decoding frame %q: %v", name, err)
			}
			if emb, err = es.Embedder(); err != nil {
				return nil, nil, malformed("%v", err)
			}
		}
	}
	if emb != nil && emb.Dim() != v.emb.Dim() {
		return nil, nil, malformed("embedder outputs dim %d, the index holds %d-dim embeddings", emb.Dim(), v.emb.Dim())
	}
	return v, emb, nil
}

// fixedFrame reads the next frame, which must be named name and hold n
// elements of width bytes. The payload is the reader's buffer: decode it
// before the next read.
func fixedFrame(sr *snapshot.Reader, name string, n, width int) ([]byte, error) {
	got, p, err := sr.Next()
	switch {
	case err == io.EOF:
		return nil, fmt.Errorf("%w: missing frame %q", snapshot.ErrTruncated, name)
	case err != nil:
		return nil, err
	case got != name:
		return nil, malformed("unexpected frame %q, want %q", got, name)
	case len(p)%width != 0:
		return nil, malformed("frame %q holds %d bytes, not a multiple of %d", name, len(p), width)
	case len(p)/width != n:
		return nil, malformed("frame %q holds %d elements, the meta declares %d", name, len(p)/width, n)
	}
	return p, nil
}

// word returns the i-th little-endian 8-byte word of p.
func word(p []byte, i int) uint64 { return binary.LittleEndian.Uint64(p[8*i:]) }

// readRange decodes the meta and the bulk frames that follow the validated
// manifest in sr into a version, and validates it.
func readRange(sr *snapshot.Reader, man manifest) (*Version, error) {
	var meta planeMeta
	if err := sr.Decode(metaFrame, &meta); err != nil {
		return nil, err
	}
	// A positive width makes the embeddings frame bound the row count, so
	// nothing below allocates for rows the file does not hold.
	rows, k := man.Total, min(man.K, len(man.Reps))
	if meta.Dim <= 0 || rows > math.MaxInt/8/meta.Dim || (k > 0 && rows > math.MaxInt/8/k) {
		return nil, malformed("%d rows of dim %d and K %d", rows, meta.Dim, man.K)
	}
	p, err := fixedFrame(sr, embeddingsFrame, rows*meta.Dim, 8)
	if err != nil {
		return nil, err
	}
	embeddings := vecmath.NewMatrix(rows, meta.Dim)
	data := embeddings.Data()
	for i := range data {
		data[i] = math.Float64frombits(word(p, i))
	}
	// Every row slices one rows×k block, as a freshly built table's do.
	block := make([]cluster.Neighbor, rows*k)
	if p, err = fixedFrame(sr, repsFrame, len(block), 8); err != nil {
		return nil, err
	}
	for i := range block {
		block[i].Rep = int(int64(word(p, i)))
	}
	if p, err = fixedFrame(sr, distsFrame, len(block), 8); err != nil {
		return nil, err
	}
	for i := range block {
		block[i].Dist = math.Float64frombits(word(p, i))
	}
	neighbors := make([][]cluster.Neighbor, rows)
	for i := range neighbors {
		neighbors[i] = block[i*k : (i+1)*k : (i+1)*k]
	}
	if p, err = fixedFrame(sr, quantFrame, rows*meta.Dim, 1); err != nil {
		return nil, err
	}
	quant, err := vecmath.QuantMatrixFromParts(bytes.Clone(p), rows, meta.Dim, meta.Quant, meta.MaxErr, meta.FitErr)
	if err != nil {
		return nil, malformed("frame %q: %v", quantFrame, err)
	}
	v := &Version{Stats: man.Stats, emb: embeddings, quant: quant, n: man.Shards,
		table: &cluster.Table{K: man.K, Reps: man.Reps, Neighbors: neighbors}, anns: man.Annotations}
	if err := v.validate(); err != nil {
		return nil, malformed("%v", err)
	}
	return v, nil
}

// validate checks what a version needs to serve: one embedding row, one code
// row and one neighbor row per record, one width, and the table's own
// invariants.
func (v *Version) validate() error {
	n := v.NumRecords()
	if v.emb.Rows() != n || v.quant.Rows() != n || v.quant.Dim() != v.emb.Dim() || !v.quant.Enabled() {
		return fmt.Errorf("shard: %d neighbor rows over %dx%d embeddings and a %dx%d plane",
			n, v.emb.Rows(), v.emb.Dim(), v.quant.Rows(), v.quant.Dim())
	}
	return v.table.Validate()
}
