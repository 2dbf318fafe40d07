package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/labeler"
)

func benchIndex(b *testing.B) *Index {
	b.Helper()
	ds, err := dataset.Generate("night-street", 3000, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := Build(PretrainedConfig(300, 2), ds, lab)
	if err != nil {
		b.Fatal(err)
	}
	return ix
}

func BenchmarkBuildPretrained(b *testing.B) {
	ds, err := dataset.Generate("night-street", 2000, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(PretrainedConfig(200, 2), ds, lab); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPropagate(b *testing.B) {
	ix := benchIndex(b)
	score := CountScore("car")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ix.Propagate(score); err != nil {
			b.Fatal(err)
		}
	}
}

// workerSweep returns the 1/2/4/NumCPU worker counts the parallel
// benchmarks sweep, deduplicated and sorted.
func workerSweep() []int {
	sweep := []int{1, 2, 4}
	if n := runtime.NumCPU(); n != 1 && n != 2 && n != 4 {
		sweep = append(sweep, n)
	}
	return sweep
}

// BenchmarkBuildParallel measures fig2-scale index construction (FPF
// representative selection + min-k table, the ClusterWall phases) across
// worker counts. The per-op output is directly comparable between
// sub-benchmarks: same seed, same corpus, bitwise-identical result.
func BenchmarkBuildParallel(b *testing.B) {
	ds, err := dataset.Generate("night-street", 6000, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			cfg := PretrainedConfig(600, 2)
			cfg.Parallelism = w
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Build(cfg, ds, lab); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPropagateParallel measures batch score propagation across worker
// counts on one fixed index.
func BenchmarkPropagateParallel(b *testing.B) {
	ds, err := dataset.Generate("night-street", 20000, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := Build(PretrainedConfig(800, 2), ds, lab)
	if err != nil {
		b.Fatal(err)
	}
	score := CountScore("car")
	for _, w := range workerSweep() {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			ix.SetParallelism(w)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ix.Propagate(score); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildAtScale prices a TASTI-PT build (800 representatives, one
// worker) at corpus sizes past the served benchmark's 60k records, and
// reports the representative-selection, table-finish and whole-build walls
// per build. The 1M corpus holds ~1.7 GB at peak, so run it alone:
//
//	go test -bench BenchmarkBuildAtScale -benchtime 1x -run '^$' -timeout 60m ./internal/core
func BenchmarkBuildAtScale(b *testing.B) {
	for _, n := range []int{200_000, 1_000_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ds, err := dataset.Generate("night-street", n, 1)
			if err != nil {
				b.Fatal(err)
			}
			lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
			cfg := PretrainedConfig(800, 2)
			cfg.Parallelism = 1
			var selectWall, tableWall, buildWall time.Duration
			for i := 0; i < b.N; i++ {
				start := time.Now()
				ix, err := Build(cfg, ds, lab)
				if err != nil {
					b.Fatal(err)
				}
				buildWall += time.Since(start)
				selectWall += ix.Stats.RepSelectWall
				tableWall += ix.Stats.TableWall
			}
			perBuild := func(d time.Duration) float64 { return float64(d.Milliseconds()) / float64(b.N) }
			b.ReportMetric(perBuild(selectWall), "select_ms")
			b.ReportMetric(perBuild(tableWall), "table_ms")
			b.ReportMetric(perBuild(buildWall), "build_ms")
		})
	}
}
