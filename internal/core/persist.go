package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"log/slog"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/snapshot"
	"repro/internal/vecmath"
)

// The annotation cache holds interface values, so gob needs the concrete
// annotation types registered — but the registration lives in exactly one
// place: package dataset's init (dataset/persist.go), which this package
// imports. Index snapshots, build checkpoints, and dataset files all decode
// through that single registration point, so adding an annotation schema
// cannot silently break one decoder while the others keep working.
var _ = dataset.GobAnnotationsRegistered

// Snapshot kinds: the artifact-type strings baked into the framed container
// header, so loading a checkpoint as an index fails with snapshot.ErrKind
// instead of a confusing decode error.
const (
	indexKind      = "tasti-index"
	checkpointKind = "tasti-checkpoint"
)

// embeddingsFlatFrame names the frame that persists the contiguous embedding
// matrix: the shape plus the backing array.
const embeddingsFlatFrame = "embeddings.flat"

// embeddingsQuantFrame is the optional trailing frame carrying the quantized
// scan plane (v3): per-dimension quantization params plus the uint8 code
// matrix. Like the embedder frame it is optional on both sides — pre-quant
// readers skip it in the trailing-frame walk, and snapshots written without
// the plane load with Quant disabled, in which case a quantize-configured
// process simply scans the float plane.
const embeddingsQuantFrame = "embeddings.quant"

// embedderFrame is the optional trailing frame carrying the embedding model
// (embed.Snapshot), so a restored index can keep appending records with
// bitwise-identical embeddings — the prerequisite for WAL replay after a
// restart. Optional on both sides: snapshots written before this frame
// existed load with Embedder == nil exactly as they always did, and readers
// from before it skip unknown trailing frames in Drain, so no container
// version bump is needed.
const embedderFrame = "embedder"

// indexMeta is the first frame of an index snapshot: everything cheap, so a
// reader can reject a damaged or mismatched file before decoding the bulky
// sections.
type indexMeta struct {
	K    int
	Reps []int
}

// flatEmbeddings is the on-disk form of the embedding matrix: the shape plus
// the matrix's backing array, encoded as a single frame instead of one gob
// slice header per record.
type flatEmbeddings struct {
	Rows, Dim int
	Data      []float64
}

// quantEmbeddings is the on-disk form of the quantized plane: the shape, the
// trained per-dimension params, the tracked decode-error bound, and the code
// bytes. Everything QuantMatrixFromParts needs to rebuild the plane with the
// scan bounds intact.
type quantEmbeddings struct {
	Rows, Dim int
	Scale     []float64
	Offset    []float64
	MaxErr    float64
	Codes     []uint8
}

// Save serializes the index in the framed snapshot format: magic, version,
// and per-section checksummed frames (see internal/snapshot), with a
// whole-file checksum trailer. The embedding matrix is written as one flat
// frame — shape plus contiguous backing array. Pair it with snapshot.WriteFile
// for an atomic, fsynced on-disk replacement.
func (ix *Index) Save(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, indexKind)
	if err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	sections := []struct {
		name string
		v    any
	}{
		{"meta", indexMeta{K: ix.Table.K, Reps: ix.Table.Reps}},
		{"neighbors", ix.Table.Neighbors},
		{"annotations", ix.Annotations},
		{embeddingsFlatFrame, flatEmbeddings{
			Rows: ix.Embeddings.Rows(),
			Dim:  ix.Embeddings.Dim(),
			Data: ix.Embeddings.Data(),
		}},
		{"stats", ix.Stats},
	}
	for _, s := range sections {
		if err := sw.Encode(s.name, s.v); err != nil {
			return fmt.Errorf("core: saving index: %w", err)
		}
	}
	if ix.Quant.Enabled() {
		p := ix.Quant.Params()
		qe := quantEmbeddings{
			Rows:   ix.Quant.Rows(),
			Dim:    ix.Quant.Dim(),
			Scale:  p.Scale,
			Offset: p.Offset,
			MaxErr: ix.Quant.MaxErr(),
			Codes:  ix.Quant.Codes(),
		}
		if err := sw.Encode(embeddingsQuantFrame, qe); err != nil {
			return fmt.Errorf("core: saving index: %w", err)
		}
	}
	if ix.Embedder != nil {
		es, err := embed.NewSnapshot(ix.Embedder)
		if err != nil {
			// An unserializable embedder degrades the snapshot to the historic
			// contract (loads with Embedder == nil, no appends after restart)
			// instead of failing the save.
			slog.Warn("core: index snapshot omits the embedding model; appends will be unavailable after a restore", "err", err.Error())
		} else if err := sw.Encode(embedderFrame, es); err != nil {
			return fmt.Errorf("core: saving index: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("core: saving index: %w", err)
	}
	return nil
}

// Load deserializes an index saved with Save: per-section and whole-file
// checksums are verified and failures carry the typed error taxonomy
// (snapshot.ErrBadMagic for a stream that is not a snapshot at all,
// ErrChecksum, ErrTruncated, ...). The returned index splits into a serving
// shard.Index like a built one; when the snapshot carries the optional
// embedder frame (see embedderFrame) the embedding model is restored too, so
// appends keep working — snapshots without it load with Embedder == nil.
func Load(r io.Reader) (*Index, error) {
	sr, err := snapshot.NewReader(r, indexKind)
	if err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	var meta indexMeta
	var neighbors [][]cluster.Neighbor
	var annotations map[int]dataset.Annotation
	var stats BuildStats
	if err := sr.Decode("meta", &meta); err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	if err := sr.Decode("neighbors", &neighbors); err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	if err := sr.Decode("annotations", &annotations); err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	var flat flatEmbeddings
	if err := sr.Decode(embeddingsFlatFrame, &flat); err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	// The shape is validated (row count × dim overflow, backing-array length)
	// before the matrix is trusted.
	embeddings, err := vecmath.MatrixFromFlat(flat.Data, flat.Rows, flat.Dim)
	if err != nil {
		return nil, fmt.Errorf("core: loading index: embeddings frame: %w", err)
	}
	if err := sr.Decode("stats", &stats); err != nil {
		return nil, fmt.Errorf("core: loading index: %w", err)
	}
	// Walk every remaining frame through the trailer, so the whole-file
	// checksum is verified before any decoded state is trusted. Optional
	// trailing frames (today: the quantized plane and the embedder) are
	// decoded by name; unknown ones are skipped for forward compatibility.
	var embedder embed.Embedder
	var quant vecmath.QuantMatrix
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("core: loading index: %w", err)
		}
		switch name {
		case embedderFrame:
			var es embed.Snapshot
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&es); err != nil {
				return nil, fmt.Errorf("core: loading index: decoding frame %q: %w", name, err)
			}
			if embedder, err = es.Embedder(); err != nil {
				return nil, fmt.Errorf("core: loading index: %w", err)
			}
		case embeddingsQuantFrame:
			var qe quantEmbeddings
			if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&qe); err != nil {
				return nil, fmt.Errorf("core: loading index: decoding frame %q: %w", name, err)
			}
			quant, err = vecmath.QuantMatrixFromParts(qe.Codes, qe.Rows, qe.Dim,
				vecmath.QuantParams{Scale: qe.Scale, Offset: qe.Offset}, qe.MaxErr)
			if err != nil {
				return nil, fmt.Errorf("core: loading index: frame %q: %w", name, err)
			}
			if !quant.Enabled() {
				// Save only writes trained planes; a frame decoding to the
				// disabled zero plane (gob drops empty parameter arrays) is
				// a degenerate artifact, not a usable scan plane.
				return nil, fmt.Errorf("core: loading index: frame %q: empty quantization parameters", name)
			}
		}
	}
	// The plane must mirror the float matrix row for row, or scan pruning
	// would consult codes for the wrong records.
	if quant.Enabled() && (quant.Rows() != embeddings.Rows() || quant.Dim() != embeddings.Dim()) {
		return nil, fmt.Errorf("core: loading index: quantized plane is %dx%d but embeddings are %dx%d",
			quant.Rows(), quant.Dim(), embeddings.Rows(), embeddings.Dim())
	}
	if embeddings.Rows() != len(neighbors) {
		return nil, fmt.Errorf("core: loaded index invalid: %d embedding rows for %d neighbor lists",
			embeddings.Rows(), len(neighbors))
	}
	if embedder != nil && embeddings.Rows() > 0 && embedder.Dim() != embeddings.Dim() {
		return nil, fmt.Errorf("core: loaded index invalid: embedder outputs dim %d, embeddings have dim %d",
			embedder.Dim(), embeddings.Dim())
	}
	ix := &Index{
		Embedder:   embedder,
		Embeddings: embeddings,
		Quant:      quant,
		Table: &cluster.Table{
			K:         meta.K,
			Reps:      meta.Reps,
			Neighbors: neighbors,
		},
		Annotations: annotations,
		Stats:       stats,
	}
	if err := ix.Table.Validate(); err != nil {
		return nil, fmt.Errorf("core: loaded index invalid: %w", err)
	}
	return ix, nil
}
