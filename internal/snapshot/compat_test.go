package snapshot_test

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/ingest"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/shard"
	"repro/internal/snapshot"
)

// reframe rewrites a snapshot of kind frame for frame at format version v,
// as a build that wrote v would have. A log (no trailer) stays a log.
func reframe(t *testing.T, data []byte, kind string, v uint32, log bool) []byte {
	t.Helper()
	open := snapshot.NewReader
	if log {
		open = snapshot.NewLogReader
	}
	sr, err := open(bytes.NewReader(data), kind)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sw, err := snapshot.NewWriterVersion(&buf, kind, v)
	if err != nil {
		t.Fatal(err)
	}
	for {
		name, p, err := sr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		if err := sw.Frame(name, p); err != nil {
			t.Fatal(err)
		}
	}
	if !log {
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// TestV3ArtifactsAfterV4 pins the compatibility line: an index snapshot
// written at v3 or v4 fails with ErrVersion (it is rebuilt, not misread),
// while a dataset, a label-store snapshot and a WAL segment written at v3
// still load — MinVersion stays 1 for every kind but the index.
func TestV3ArtifactsAfterV4(t *testing.T) {
	ds, err := dataset.Generate("night-street", 150, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)

	ix, err := core.Build(core.PretrainedConfig(15, 1), ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	for _, v := range []uint32{3, 4} {
		if _, err := shard.Load(bytes.NewReader(reframe(t, buf.Bytes(), shard.IndexKind, v, false))); !errors.Is(err, snapshot.ErrVersion) {
			t.Errorf("v%d index snapshot: err = %v, want ErrVersion", v, err)
		}
	}

	buf.Reset()
	if err := ds.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if back, err := dataset.Load(bytes.NewReader(reframe(t, buf.Bytes(), "tasti-dataset", 3, false))); err != nil || back.Len() != ds.Len() {
		t.Errorf("v3 dataset: %v", err)
	}

	buf.Reset()
	corpus := store.Corpus{Dataset: "night-street", Size: 150, Seed: 1}
	labels := store.New(store.Options{Corpus: corpus})
	labels.Put(7, dataset.VideoAnnotation{Boxes: []dataset.Box{{Class: "car"}}})
	if err := labels.Save(&buf); err != nil {
		t.Fatal(err)
	}
	restored := store.New(store.Options{Corpus: corpus})
	if err := restored.Restore(bytes.NewReader(reframe(t, buf.Bytes(), store.Kind, 3, false))); err != nil || restored.Len() != 1 {
		t.Errorf("v3 label store: %d labels, %v", restored.Len(), err)
	}

	dir := t.TempDir()
	wal, err := ingest.OpenWAL(dir, 150, ingest.WALOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if err := wal.Append(ingest.Batch{Base: 150, Features: [][]float64{ds.Records[0].Features}, Anns: []dataset.Annotation{dataset.VideoAnnotation{}}}); err != nil {
		t.Fatal(err)
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("WAL segments %v, %v", segs, err)
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segs[0], reframe(t, data, ingest.WALKind, 3, true), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := ingest.Replay(dir, 150, func(ingest.Batch) error { return nil })
	if err != nil || st.Records != 1 || st.Truncated {
		t.Errorf("v3 WAL segment: %+v, %v", st, err)
	}
}
