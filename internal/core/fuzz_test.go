package core

import (
	"bytes"
	"encoding/gob"
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/snapshot"
)

// fuzzSeedIndex builds one tiny index for the fuzz seed corpus, shared and
// memoized because fuzz workers re-run the seed setup.
var fuzzSeedIndex = sync.OnceValues(func() ([]byte, error) {
	ds, err := dataset.Generate("night-street", 120, 3)
	if err != nil {
		return nil, err
	}
	cfg := PretrainedConfig(10, 3)
	cfg.EmbedDim = 4
	cfg.K = 2
	ix, err := Build(cfg, ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
})

// FuzzLoadIndex feeds arbitrary bytes to Load and requires it to terminate
// with a value or an error: no panic, no hang, no unbounded allocation. A
// stream that does not open with the snapshot magic — the bare-gob seed is
// what builds before the framed format wrote — is refused as ErrBadMagic
// before any of it is decoded.
func FuzzLoadIndex(f *testing.F) {
	valid, err := fuzzSeedIndex()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:7])
	f.Add([]byte{})
	f.Add([]byte("TASTISNP"))
	f.Add([]byte("not a snapshot"))
	mut := append([]byte(nil), valid...)
	mut[len(mut)/3] ^= 0x10
	f.Add(mut)
	ix, err := fuzzSeedIndexValue()
	if err != nil {
		f.Fatal(err)
	}
	var bare bytes.Buffer
	if err := gob.NewEncoder(&bare).Encode(indexMeta{K: ix.Table.K, Reps: ix.Table.Reps}); err != nil {
		f.Fatal(err)
	}
	f.Add(bare.Bytes())

	f.Fuzz(func(t *testing.T, data []byte) {
		ix, err := Load(bytes.NewReader(data))
		if err == nil && ix.Table.Validate() != nil {
			t.Fatal("Load accepted an index its own validation rejects")
		}
		requireBadMagic(t, data, err)
	})
}

// requireBadMagic fails unless input without the snapshot magic was refused
// with snapshot.ErrBadMagic.
func requireBadMagic(t *testing.T, data []byte, err error) {
	t.Helper()
	if !bytes.HasPrefix(data, snapshot.Magic[:]) && !errors.Is(err, snapshot.ErrBadMagic) {
		t.Fatalf("input without the snapshot magic: err = %v, want ErrBadMagic", err)
	}
}

// FuzzLoadIndexFlat targets the flat embeddings frame specifically: it
// re-frames a valid snapshot with a fuzz-controlled flatEmbeddings payload
// (arbitrary Rows/Dim shape against an arbitrary-length backing array, so
// the corpus explores rows×dim overflow, truncated data, and negative
// shapes) and requires Load to return a validated index or a typed error —
// never a panic or an out-of-bounds matrix.
func FuzzLoadIndexFlat(f *testing.F) {
	ix, err := fuzzSeedIndexValue()
	if err != nil {
		f.Fatal(err)
	}
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
		var buf bytes.Buffer
		sw, err := snapshot.NewWriter(&buf, indexKind)
		if err != nil {
			t.Fatal(err)
		}
		sections := []struct {
			name string
			v    any
		}{
			{"meta", indexMeta{K: ix.Table.K, Reps: ix.Table.Reps}},
			{"neighbors", ix.Table.Neighbors},
			{"annotations", ix.Annotations},
			{embeddingsFlatFrame, flatEmbeddings{Rows: rows, Dim: dim, Data: make([]float64, dataLen)}},
			{"stats", ix.Stats},
		}
		for _, s := range sections {
			if err := sw.Encode(s.name, s.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return
		}
		// The only accepted shape is one consistent with the neighbor table.
		if got.Embeddings.Rows() != len(ix.Table.Neighbors) || rows*dim != dataLen {
			t.Fatalf("accepted inconsistent shape %dx%d over %d entries", rows, dim, dataLen)
		}
	})
}

// FuzzLoadIndexQuant targets the quantized-plane frame: it re-frames a valid
// snapshot with a fuzz-controlled quantEmbeddings payload (arbitrary shape,
// param-array lengths, code-array length, and decode-error bound) and
// requires Load to return a validated index or a typed error — never a panic
// or a plane inconsistent with the embeddings it must mirror.
func FuzzLoadIndexQuant(f *testing.F) {
	ix, err := fuzzSeedIndexValue()
	if err != nil {
		f.Fatal(err)
	}
	rows, dim := ix.Embeddings.Rows(), ix.Embeddings.Dim()
	maxInt := int(^uint(0) >> 1)
	f.Add(rows, dim, dim, dim, rows*dim, 0.01)
	f.Add(rows, dim, dim-1, dim, rows*dim, 0.01)      // short scale array
	f.Add(rows, dim, dim, dim+1, rows*dim, 0.01)      // long offset array
	f.Add(rows, dim, dim, dim, rows*dim-1, 0.01)      // truncated codes
	f.Add(rows+1, dim, dim, dim, rows*dim, 0.01)      // row-count mismatch vs embeddings
	f.Add(-1, dim, dim, dim, 0, 0.01)                 // negative shape
	f.Add(maxInt/2+1, 4, 4, 4, 16, 0.01)              // rows*dim overflow
	f.Add(rows, dim, dim, dim, rows*dim, -1.0)        // negative error bound
	f.Add(rows, dim, dim, dim, rows*dim, math.Inf(1)) // non-finite error bound

	f.Fuzz(func(t *testing.T, qrows, qdim, scaleLen, offsetLen, codesLen int, maxErr float64) {
		if scaleLen < 0 || scaleLen > 1<<12 || offsetLen < 0 || offsetLen > 1<<12 ||
			codesLen < 0 || codesLen > 1<<16 {
			return // cap array allocations so the fuzzer can't OOM the host
		}
		scale := make([]float64, scaleLen)
		for i := range scale {
			scale[i] = 0.5
		}
		var buf bytes.Buffer
		sw, err := snapshot.NewWriter(&buf, indexKind)
		if err != nil {
			t.Fatal(err)
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
			{embeddingsQuantFrame, quantEmbeddings{
				Rows:   qrows,
				Dim:    qdim,
				Scale:  scale,
				Offset: make([]float64, offsetLen),
				MaxErr: maxErr,
				Codes:  make([]uint8, codesLen),
			}},
		}
		for _, s := range sections {
			if err := sw.Encode(s.name, s.v); err != nil {
				t.Fatal(err)
			}
		}
		if err := sw.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := Load(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return
		}
		// Anything accepted must be a plane that exactly mirrors the
		// embedding matrix, with internally consistent parts.
		if !got.Quant.Enabled() {
			t.Fatal("accepted a quant frame but returned a disabled plane")
		}
		if got.Quant.Rows() != got.Embeddings.Rows() || got.Quant.Dim() != got.Embeddings.Dim() {
			t.Fatalf("accepted a %dx%d plane over %dx%d embeddings",
				got.Quant.Rows(), got.Quant.Dim(), got.Embeddings.Rows(), got.Embeddings.Dim())
		}
		if qrows*qdim != codesLen || scaleLen != qdim || offsetLen != qdim {
			t.Fatalf("accepted inconsistent quant parts: %dx%d, %d/%d params, %d codes",
				qrows, qdim, scaleLen, offsetLen, codesLen)
		}
	})
}

// fuzzSeedIndexValue rebuilds the fuzz seed index itself (not its encoded
// bytes), memoized like fuzzSeedIndex.
var fuzzSeedIndexValue = sync.OnceValues(func() (*Index, error) {
	data, err := fuzzSeedIndex()
	if err != nil {
		return nil, err
	}
	return Load(bytes.NewReader(data))
})

// FuzzLoadCheckpoint does the same for the checkpoint decoder.
func FuzzLoadCheckpoint(f *testing.F) {
	ckpt := &Checkpoint{
		Seed: 3, DatasetLen: 120, TrainingBudget: 0, NumReps: 10,
		Labeled: map[int]dataset.Annotation{},
		Failed:  map[int]string{5: "dead"},
	}
	var framed bytes.Buffer
	if err := ckpt.Save(&framed); err != nil {
		f.Fatal(err)
	}
	var bare bytes.Buffer // what builds before the framed format wrote
	if err := gob.NewEncoder(&bare).Encode(ckpt); err != nil {
		f.Fatal(err)
	}
	f.Add(framed.Bytes())
	f.Add(bare.Bytes())
	f.Add(framed.Bytes()[:len(framed.Bytes())/2])
	f.Add([]byte{})
	f.Add([]byte("TASTISNP\x00\x00"))

	f.Fuzz(func(t *testing.T, data []byte) {
		_, err := LoadCheckpoint(bytes.NewReader(data))
		requireBadMagic(t, data, err)
	})
}
