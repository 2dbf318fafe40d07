package shard

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"log/slog"

	"repro/internal/core"
	"repro/internal/embed"
	"repro/internal/snapshot"
)

// IndexKind is the framed-container artifact type of a sharded index
// snapshot. Loading a single-index snapshot through Load (or vice versa)
// fails with snapshot.ErrKind, so cmd/tastiserve can fall back to the
// single-index container on a typed error instead of a decode mystery.
const IndexKind = "tasti-shard-index"

// manifestFrame precedes the shard payloads so a reader can learn the
// layout — and reject a mismatched file — before decoding any bulk data.
const manifestFrame = "manifest"

// shardFrame names the s-th shard's payload frame.
func shardFrame(s int) string { return fmt.Sprintf("shard.%d", s) }

// embedderFrame is the optional trailing frame carrying the shared embedding
// model (embed.Snapshot), mirroring the single-index container's frame of the
// same name: it is written once at the outer level rather than per shard,
// since every shard uses the identical model. Older sharded snapshots load
// with no embedder; older readers skip the frame in Drain.
const embedderFrame = "embedder"

// manifest is the first frame of a sharded snapshot: the corpus size, every
// shard's record range, and the build stats.
type manifest struct {
	Total  int
	Shards []shardRange
	Stats  core.BuildStats
}

type shardRange struct {
	Lo, Hi int
}

// validate checks the manifest describes a legal contiguous partition.
func (m manifest) validate() error {
	if m.Total < 0 || len(m.Shards) == 0 {
		return fmt.Errorf("shard: manifest with %d records in %d shards", m.Total, len(m.Shards))
	}
	next := 0
	for s, r := range m.Shards {
		if r.Lo != next || r.Hi < r.Lo {
			return fmt.Errorf("shard: manifest shard %d covers [%d,%d), want lo %d", s, r.Lo, r.Hi, next)
		}
		next = r.Hi
	}
	if next != m.Total {
		return fmt.Errorf("shard: manifest shards cover [0,%d) of %d records", next, m.Total)
	}
	return nil
}

// repsInRange rejects representative IDs outside the corpus — the one
// invariant cluster.Table.Validate cannot check for a shard-local table,
// whose neighbor rows legitimately name IDs beyond its own row count.
func repsInRange(sh *Shard, total int) error {
	for _, rep := range sh.Table.Reps {
		if rep < 0 || rep >= total {
			return fmt.Errorf("shard: representative %d out of corpus range [0,%d)", rep, total)
		}
	}
	return nil
}

// Save serializes the sharded index: one framed container of kind
// "tasti-shard-index" holding a manifest frame followed by one frame per
// shard, each payload a complete single-index container in the existing core
// snapshot format. Nesting whole containers buys per-shard CRCs, the typed
// error taxonomy, and a LoadShard that can lift one shard without decoding
// its peers — while reusing core's codec for every byte of bulk data. The
// version is immutable, so the written state is consistent however long the
// write takes and whatever is published meanwhile.
func (v *Version) Save(w io.Writer) error {
	sw, err := snapshot.NewWriter(w, IndexKind)
	if err != nil {
		return fmt.Errorf("shard: saving index: %w", err)
	}
	man := manifest{Total: v.total, Stats: v.Stats}
	for _, sh := range v.shards {
		man.Shards = append(man.Shards, shardRange{Lo: sh.Lo, Hi: sh.Hi})
	}
	if err := sw.Encode(manifestFrame, man); err != nil {
		return fmt.Errorf("shard: saving index: %w", err)
	}
	var buf bytes.Buffer
	for s, sh := range v.shards {
		buf.Reset()
		inner := &core.Index{
			Embeddings:  sh.Embeddings,
			Quant:       sh.Quant,
			Table:       sh.Table,
			Annotations: sh.Annotations,
			Stats:       v.Stats,
		}
		if err := inner.Save(&buf); err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", s, err)
		}
		if err := sw.Frame(shardFrame(s), buf.Bytes()); err != nil {
			return fmt.Errorf("shard: saving shard %d: %w", s, err)
		}
	}
	if v.w.emb != nil {
		es, err := embed.NewSnapshot(v.w.emb)
		if err != nil {
			// Degrade to the historic contract (restores with no embedder, so
			// no appends after a restart) instead of failing the save.
			slog.Warn("shard: index snapshot omits the embedding model; appends will be unavailable after a restore", "err", err.Error())
		} else if err := sw.Encode(embedderFrame, es); err != nil {
			return fmt.Errorf("shard: saving index: %w", err)
		}
	}
	if err := sw.Close(); err != nil {
		return fmt.Errorf("shard: saving index: %w", err)
	}
	return nil
}

// Load deserializes a sharded index saved with Save, verifying the outer and
// every inner container's checksums and validating each shard against the
// manifest before any of it is trusted. The restored index has default
// parallelism and no telemetry; callers wire both afterwards.
func Load(r io.Reader) (*Index, error) {
	sr, err := snapshot.NewReader(r, IndexKind)
	if err != nil {
		return nil, fmt.Errorf("shard: loading index: %w", err)
	}
	var man manifest
	if err := sr.Decode(manifestFrame, &man); err != nil {
		return nil, fmt.Errorf("shard: loading index: %w", err)
	}
	if err := man.validate(); err != nil {
		return nil, err
	}
	shards := make([]*Shard, len(man.Shards))
	var emb embed.Embedder
	for s := range man.Shards {
		name, payload, err := sr.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing frame %q", snapshot.ErrTruncated, shardFrame(s))
		}
		if err != nil {
			return nil, fmt.Errorf("shard: loading index: %w", err)
		}
		if name != shardFrame(s) {
			return nil, fmt.Errorf("shard: unexpected frame %q, want %q", name, shardFrame(s))
		}
		sh, err := decodeShard(payload, man.Shards[s], man.Total)
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", s, err)
		}
		shards[s] = sh
	}
	// Walk the remaining frames through the trailer so the whole-file CRC is
	// verified, decoding the optional embedder frame and skipping unknown
	// trailing frames for forward compatibility.
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("shard: loading index: %w", err)
		}
		if name != embedderFrame {
			continue
		}
		var es embed.Snapshot
		if err := gob.NewDecoder(bytes.NewReader(payload)).Decode(&es); err != nil {
			return nil, fmt.Errorf("shard: loading index: decoding frame %q: %w", name, err)
		}
		if emb, err = es.Embedder(); err != nil {
			return nil, fmt.Errorf("shard: loading index: %w", err)
		}
	}
	return newIndex(wiring{emb: emb}, man.Stats, shards, man.Total), nil
}

// LoadShard lifts the single shard i out of a sharded snapshot without
// decoding its peers' payloads — the cheap path behind cmd/tastiserve's
// per-shard reload. The outer container's framing walks (and CRC-checks)
// every frame header up to shard i, then the whole-file trailer, so a
// corrupt earlier frame still surfaces as a typed error naming that frame.
func LoadShard(r io.Reader, i int) (*Shard, error) {
	sr, err := snapshot.NewReader(r, IndexKind)
	if err != nil {
		return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
	}
	var man manifest
	if err := sr.Decode(manifestFrame, &man); err != nil {
		return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
	}
	if err := man.validate(); err != nil {
		return nil, err
	}
	if i < 0 || i >= len(man.Shards) {
		return nil, fmt.Errorf("shard: shard %d out of range [0,%d)", i, len(man.Shards))
	}
	want := shardFrame(i)
	var sh *Shard
	for {
		name, payload, err := sr.Next()
		if err == io.EOF {
			return nil, fmt.Errorf("%w: missing frame %q", snapshot.ErrTruncated, want)
		}
		if err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
		}
		if name != want {
			continue
		}
		if sh, err = decodeShard(payload, man.Shards[i], man.Total); err != nil {
			return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
		}
		break
	}
	if err := sr.Drain(); err != nil {
		return nil, fmt.Errorf("shard: loading shard %d: %w", i, err)
	}
	return sh, nil
}

// decodeShard decodes one nested single-index container into a Shard with
// the manifest's record range, validating shape, table invariants, and
// representative-ID bounds.
func decodeShard(payload []byte, r shardRange, total int) (*Shard, error) {
	inner, err := core.Load(bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	sh := &Shard{
		Lo:          r.Lo,
		Hi:          r.Hi,
		Embeddings:  inner.Embeddings,
		Quant:       inner.Quant,
		Table:       inner.Table,
		Annotations: inner.Annotations,
	}
	if err := sh.Validate(); err != nil {
		return nil, err
	}
	if err := repsInRange(sh, total); err != nil {
		return nil, err
	}
	return sh, nil
}
