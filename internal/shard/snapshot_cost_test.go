package shard_test

import (
	"bytes"
	"io"
	"runtime"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/shard"
)

// splitPT builds a TASTI-PT index over n records of name and splits it into
// two shards — the serving shape of the repository benchmark.
func splitPT(tb testing.TB, name string, n, reps int) *shard.Index {
	tb.Helper()
	ds, err := dataset.Generate(name, n, 1)
	if err != nil {
		tb.Fatal(err)
	}
	ix, err := core.Build(core.PretrainedConfig(reps, 1), ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
	if err != nil {
		tb.Fatal(err)
	}
	x, err := shard.Split(ix, 2)
	if err != nil {
		tb.Fatal(err)
	}
	return x
}

// BenchmarkSnapshotSaveLoad saves and loads a two-shard TASTI-PT index over
// taipei at 20k records / 800 representatives and 60k / 1200, and reports
// the file size beside each direction's B/op. Save streams into io.Discard,
// so its allocation is the codec's own.
//
//	go test -run '^$' -bench BenchmarkSnapshotSaveLoad -benchtime 5x ./internal/shard
func BenchmarkSnapshotSaveLoad(b *testing.B) {
	for _, size := range []struct {
		name    string
		n, reps int
	}{{"20k", 20000, 800}, {"60k", 60000, 1200}} {
		x := splitPT(b, "taipei", size.n, size.reps)
		var buf bytes.Buffer
		if err := x.Save(&buf); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		b.Run(size.name+"/save", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(data)), "file_B")
			for i := 0; i < b.N; i++ {
				if err := x.Save(io.Discard); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(size.name+"/load", func(b *testing.B) {
			b.ReportAllocs()
			b.ReportMetric(float64(len(data)), "file_B")
			for i := 0; i < b.N; i++ {
				if _, err := shard.Load(bytes.NewReader(data)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// allocated returns the bytes fn allocates.
func allocated(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestSnapshotAllocationBounded holds the codec to its allocation budget at
// a small scale: a save allocates at most 1.5 files, a load at most 2.5.
func TestSnapshotAllocationBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	x := splitPT(t, "taipei", 4000, 200)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	file := float64(buf.Len())
	var err error
	save := allocated(func() { err = x.Save(io.Discard) })
	if err != nil {
		t.Fatal(err)
	}
	load := allocated(func() { _, err = shard.Load(bytes.NewReader(buf.Bytes())) })
	if err != nil {
		t.Fatal(err)
	}
	if float64(save) > 1.5*file || float64(load) > 2.5*file {
		t.Fatalf("file %.0f B: save allocated %d B (%.2fx), load %d B (%.2fx); budget 1.5x / 2.5x",
			file, save, float64(save)/file, load, float64(load)/file)
	}
	t.Logf("file %.0f B: save %.3fx, load %.3fx", file, float64(save)/file, float64(load)/file)
}
