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
	"slices"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// IndexKind is the framed-container artifact type of an index snapshot —
// the only one: a single index is saved as one shard.
const IndexKind = "tasti-shard-index"

// layoutVersion is the first container version with this layout, whose
// manifest holds the one representative list and annotation map and whose
// every shard carries its quantized plane; an older index snapshot is
// rebuilt, not converted.
const layoutVersion = 6

// The container holds the manifest, then each shard s's frames
// "shard.<s>.<part>" in the order below, then the optional embedder (an
// embed.Snapshot, shared by every shard). Bulk parts are little-endian
// fixed-width arrays whose lengths the manifest and the shard's meta fix.
const (
	manifestFrame  = "manifest"
	embedderFrame  = "embedder"
	metaPart       = "meta"       // gob shardMeta
	embeddingsPart = "embeddings" // rows×dim float64
	repsPart       = "reps"       // rows×k int64 representative IDs
	distsPart      = "dists"      // rows×k float64 distances
	quantPart      = "quant"      // rows×dim uint8 codes
)

// shardFrame names part of the s-th shard.
func shardFrame(s int, part string) string { return fmt.Sprintf("shard.%d.%s", s, part) }

// manifest is the first frame: the corpus size, every shard's record range,
// the build stats, which name the corpus the index was built over, and the
// state every shard shares — the table depth K, the representative list and
// their annotations. Every neighbor row holds exactly k = min(K, len(Reps))
// entries (cluster.Table.Validate).
type manifest struct {
	Total       int
	Shards      []shardRange
	Stats       core.BuildStats
	K           int
	Reps        []int
	Annotations map[int]dataset.Annotation
}

type shardRange struct{ Lo, Hi int }

// shardMeta is a shard's own small state: its embedding width and its
// plane's parameters and decode-error bound (appends widen the last shard's).
type shardMeta struct {
	Dim    int
	Quant  vecmath.QuantParams
	MaxErr float64
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

// validate checks the manifest describes a legal contiguous partition, a
// table depth, and representatives inside the corpus.
func (m manifest) validate() error {
	if m.Total < 0 || len(m.Shards) == 0 || m.K < 0 {
		return malformed("manifest with %d records in %d shards at K %d", m.Total, len(m.Shards), m.K)
	}
	next := 0
	for s, r := range m.Shards {
		if r.Lo != next || r.Hi < r.Lo {
			return malformed("manifest shard %d covers [%d,%d), want lo %d", s, r.Lo, r.Hi, next)
		}
		next = r.Hi
	}
	if next != m.Total {
		return malformed("manifest shards cover [0,%d) of %d records", next, m.Total)
	}
	for _, rep := range m.Reps {
		if rep < 0 || rep >= m.Total {
			return malformed("representative %d outside the corpus [0,%d)", rep, m.Total)
		}
	}
	return nil
}

// consistent checks that shards can serve together: one embedding width, and
// an embedder (when there is one) that outputs that width. A disagreement
// would otherwise surface as a panic inside a propagation, append or crack
// worker.
func consistent(shards []*Shard, emb embed.Embedder) error {
	dim := shards[0].Embeddings.Dim()
	for s, sh := range shards {
		if sh.Embeddings.Dim() != dim {
			return fmt.Errorf("shard: shard %d has %d-dim embeddings, shard 0 has %d-dim", s, sh.Embeddings.Dim(), dim)
		}
	}
	if emb != nil && emb.Dim() != dim {
		return fmt.Errorf("shard: embedder outputs dim %d, shards hold %d-dim embeddings", emb.Dim(), dim)
	}
	return nil
}

// Save serializes the index as one framed container (layout above): the
// representatives and their annotations once, in the manifest. Each bulk
// array is encoded into one buffer reused across frames and shards. The
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
	man := manifest{Total: v.total, Stats: v.Stats, K: v.K(), Reps: v.reps(), Annotations: v.anns()}
	for _, sh := range v.shards {
		man.Shards = append(man.Shards, shardRange{Lo: sh.Lo, Hi: sh.Hi})
	}
	if err := sw.Encode(manifestFrame, man); err != nil {
		return err
	}
	var buf []byte
	// words frames n 8-byte little-endian words, the i-th at(i).
	words := func(name string, n int, at func(i int) uint64) error {
		buf = slices.Grow(buf[:0], 8*n)
		for i := 0; i < n; i++ {
			buf = binary.LittleEndian.AppendUint64(buf, at(i))
		}
		return sw.Frame(name, buf)
	}
	for s, sh := range v.shards {
		t, emb := sh.Table, sh.Embeddings.Data()
		k := min(t.K, len(t.Reps))
		meta := shardMeta{Dim: sh.Embeddings.Dim(), Quant: sh.Quant.Params(), MaxErr: sh.Quant.MaxErr()}
		nb := func(i int) cluster.Neighbor { return t.Neighbors[i/k][i%k] }
		if err := sw.Encode(shardFrame(s, metaPart), meta); err != nil {
			return err
		}
		if err := words(shardFrame(s, embeddingsPart), len(emb), func(i int) uint64 { return math.Float64bits(emb[i]) }); err != nil {
			return err
		}
		if err := words(shardFrame(s, repsPart), len(t.Neighbors)*k, func(i int) uint64 { return uint64(nb(i).Rep) }); err != nil {
			return err
		}
		if err := words(shardFrame(s, distsPart), len(t.Neighbors)*k, func(i int) uint64 { return math.Float64bits(nb(i).Dist) }); err != nil {
			return err
		}
		if err := sw.Frame(shardFrame(s, quantPart), sh.Quant.Codes()); err != nil {
			return err
		}
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
// whole-file checksum and validating each shard against the manifest and its
// peers before any of it is trusted; every failure carries the snapshot
// error taxonomy. The restored index has default parallelism and no
// telemetry; callers wire both afterwards.
func Load(r io.Reader) (*Index, error) {
	man, shards, emb, err := load(r)
	if err != nil {
		return nil, fmt.Errorf("shard: loading index: %w", err)
	}
	return newIndex(wiring{emb: emb}, man.Stats, shards, man.Total), nil
}

// load walks a snapshot through its trailer, decoding every shard and the
// embedder.
func load(r io.Reader) (man manifest, shards []*Shard, emb embed.Embedder, err error) {
	sr, err := snapshot.NewReader(r, IndexKind)
	if err != nil {
		return man, nil, nil, err
	}
	if v := sr.Version(); v < layoutVersion {
		return man, nil, nil, fmt.Errorf("%w: index snapshot v%d predates the v%d layout; rebuild it",
			snapshot.ErrVersion, v, layoutVersion)
	}
	if err := sr.Decode(manifestFrame, &man); err != nil {
		return man, nil, nil, err
	}
	if err := man.validate(); err != nil {
		return man, nil, nil, err
	}
	if man.Annotations == nil {
		man.Annotations = map[int]dataset.Annotation{}
	}
	shards = make([]*Shard, len(man.Shards))
	s := 0 // the next shard whose meta frame is due
	for {
		name, p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return man, nil, nil, err
		}
		switch {
		case s < len(shards):
			if name != shardFrame(s, metaPart) {
				return man, nil, nil, malformed("unexpected frame %q, want %q", name, shardFrame(s, metaPart))
			}
			if shards[s], err = readShard(sr, s, p, man); err != nil {
				return man, nil, nil, fmt.Errorf("shard %d: %w", s, err)
			}
			s++
		case name == embedderFrame:
			var es embed.Snapshot
			if err := gob.NewDecoder(bytes.NewReader(p)).Decode(&es); err != nil {
				return man, nil, nil, malformed("decoding frame %q: %v", name, err)
			}
			if emb, err = es.Embedder(); err != nil {
				return man, nil, nil, malformed("%v", err)
			}
		}
		// Anything else is an unknown trailing frame, skipped for forward
		// compatibility.
	}
	if s < len(shards) {
		return man, nil, nil, fmt.Errorf("%w: missing frame %q", snapshot.ErrTruncated, shardFrame(s, metaPart))
	}
	if err := consistent(shards, emb); err != nil {
		return man, nil, nil, malformed("%v", err)
	}
	return man, shards, emb, nil
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

// readShard decodes shard s from its meta payload and the bulk frames that
// follow it in sr, over the validated manifest's record range, and validates
// its shapes and table invariants. The shard aliases the manifest's
// representative list and annotation map, as every peer does.
func readShard(sr *snapshot.Reader, s int, metaPayload []byte, man manifest) (*Shard, error) {
	var meta shardMeta
	if err := gob.NewDecoder(bytes.NewReader(metaPayload)).Decode(&meta); err != nil {
		return nil, malformed("decoding frame %q: %v", shardFrame(s, metaPart), err)
	}
	// A positive width makes the embeddings frame bound the row count, so
	// nothing below allocates for rows the file does not hold.
	r := man.Shards[s]
	rows, k := r.Hi-r.Lo, min(man.K, len(man.Reps))
	if meta.Dim <= 0 || rows > math.MaxInt/8/meta.Dim || (k > 0 && rows > math.MaxInt/8/k) {
		return nil, malformed("%d rows of dim %d and K %d", rows, meta.Dim, man.K)
	}
	p, err := fixedFrame(sr, shardFrame(s, embeddingsPart), rows*meta.Dim, 8)
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
	if p, err = fixedFrame(sr, shardFrame(s, repsPart), len(block), 8); err != nil {
		return nil, err
	}
	for i := range block {
		block[i].Rep = int(int64(word(p, i)))
	}
	if p, err = fixedFrame(sr, shardFrame(s, distsPart), len(block), 8); err != nil {
		return nil, err
	}
	for i := range block {
		block[i].Dist = math.Float64frombits(word(p, i))
	}
	neighbors := make([][]cluster.Neighbor, rows)
	for i := range neighbors {
		neighbors[i] = block[i*k : (i+1)*k : (i+1)*k]
	}
	if p, err = fixedFrame(sr, shardFrame(s, quantPart), rows*meta.Dim, 1); err != nil {
		return nil, err
	}
	quant, err := vecmath.QuantMatrixFromParts(bytes.Clone(p), rows, meta.Dim, meta.Quant, meta.MaxErr)
	if err != nil {
		return nil, malformed("frame %q: %v", shardFrame(s, quantPart), err)
	}
	sh := &Shard{Lo: r.Lo, Hi: r.Hi, Embeddings: embeddings, Quant: quant,
		Table:       &cluster.Table{K: man.K, Reps: man.Reps, Neighbors: neighbors},
		Annotations: man.Annotations}
	if err := sh.Validate(); err != nil {
		return nil, malformed("%v", err)
	}
	return sh, nil
}
