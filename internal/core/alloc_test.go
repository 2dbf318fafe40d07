package core

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
)

// TestBuildKeepsNoDistanceMatrix pins the build's memory shape: a pretrained
// build allocates less in total than one representatives × records float64
// distance matrix would, so retaining the FPF sweep's distances for the table
// build (128 MB at 20k × 800, alive through the whole labeling phase) cannot
// come back unnoticed. The scan path allocates about a quarter of the bound.
func TestBuildKeepsNoDistanceMatrix(t *testing.T) {
	const n, reps = 6000, 600
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	cfg := PretrainedConfig(reps, 2)
	cfg.Parallelism = 1
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(cfg, ds, lab); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if got, bound := after.TotalAlloc-before.TotalAlloc, uint64(n*reps*8); got >= bound {
		t.Errorf("build allocated %d bytes, at least the %d of a %d×%d distance matrix", got, bound, reps, n)
	}
}
