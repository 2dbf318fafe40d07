package core

import (
	"runtime"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
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

// TestPropagatorZeroAllocWarm pins the serve-path guarantee: after one
// warm-up call, Propagator.PropagateK performs zero allocations per query at
// Parallelism=1 — the per-query cost is pure arithmetic over the flat table
// and the reused scratch slices.
func TestPropagatorZeroAllocWarm(t *testing.T) {
	cfg := PretrainedConfig(30, 1)
	cfg.EmbedDim = 8
	cfg.K = 3
	cfg.Parallelism = 1
	ix, _, _ := buildTestIndex(t, cfg, "night-street", 800)

	score := CountScore("car")
	p := NewPropagator(ix)
	if _, err := p.PropagateK(score, ix.Table.K); err != nil { // warm-up
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := p.PropagateK(score, ix.Table.K); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Propagator allocates %v per call", n)
	}
}

// TestPropagatorZeroAllocWithTelemetry: enabling the metrics registry must
// not reintroduce per-query allocations — the metric names are package
// constants, so the counter and histogram lookups are warm map reads.
func TestPropagatorZeroAllocWithTelemetry(t *testing.T) {
	cfg := PretrainedConfig(20, 1)
	cfg.EmbedDim = 8
	cfg.K = 2
	cfg.Parallelism = 1
	cfg.Telemetry = telemetry.NewRegistry()
	ix, _, _ := buildTestIndex(t, cfg, "night-street", 400)

	score := CountScore("car")
	p := NewPropagator(ix)
	if _, err := p.PropagateK(score, ix.Table.K); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(50, func() {
		if _, err := p.PropagateK(score, ix.Table.K); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("warm Propagator with telemetry allocates %v per call", n)
	}
}

// TestPropagatorMatchesIndexPropagate pins that the reusable-buffer path and
// the allocating convenience method produce identical bits.
func TestPropagatorMatchesIndexPropagate(t *testing.T) {
	cfg := PretrainedConfig(25, 1)
	cfg.EmbedDim = 8
	cfg.K = 3
	ix, _, _ := buildTestIndex(t, cfg, "night-street", 500)

	score := CountScore("car")
	want, err := ix.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPropagator(ix)
	got, err := p.PropagateK(score, ix.Table.K)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("%d scores, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}
