package core

import (
	"fmt"
	"runtime"
	"testing"

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
