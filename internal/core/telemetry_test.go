package core

import (
	"strings"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
	"repro/internal/triplet"
)

// TestBuildTelemetryInvariant is the observability layer's hard contract:
// instruments are record-only, so a fully-instrumented build (registry +
// trace) is bitwise identical to a disabled-telemetry build.
func TestBuildTelemetryInvariant(t *testing.T) {
	ds, err := dataset.Generate("night-street", 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(150, 120, triplet.VideoBucketKey(0.5), 7)
	base.Parallelism = 4

	plain := buildAt(t, base, ds, 4)

	cfg := base
	cfg.Telemetry = telemetry.NewRegistry()
	tr := telemetry.NewTrace("test-build")
	cfg.TraceSpan = tr.Root()
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	instrumented, err := Build(cfg, ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	tr.Finish()

	assertIndexesIdentical(t, plain, instrumented, 4)

	// The registry saw the build.
	if got := cfg.Telemetry.Counter("tasti_builds_total").Value(); got != 1 {
		t.Errorf("tasti_builds_total = %d, want 1", got)
	}
	if calls := cfg.Telemetry.Counter(`tasti_build_label_calls_total{phase="rep"}`).Value(); calls != int64(instrumented.Stats.RepLabelCalls) {
		t.Errorf("rep label calls metric = %d, stats say %d", calls, instrumented.Stats.RepLabelCalls)
	}

	// The trace grew the per-phase spans under the caller's root.
	names := tr.SpanNames()
	for _, want := range []string{"embed/pretrained", "train", "cluster/select", "cluster/label", "cluster/table"} {
		found := false
		for _, n := range names {
			if n == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("trace missing span %q (have %v)", want, names)
		}
	}
}

// TestBuildPropagateQueryMetrics covers the propagation instruments end to
// end: one count and one latency observation per call.
func TestBuildPropagateQueryMetrics(t *testing.T) {
	ds, err := dataset.Generate("night-street", 800, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	cfg := PretrainedConfig(80, 3)
	cfg.Telemetry = reg
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := Build(cfg, ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ix.Propagate(CountScore("car")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Counter(`tasti_propagate_total{kind="weighted"}`).Value(); got != 1 {
		t.Errorf(`propagate{weighted} = %d, want 1`, got)
	}
	if got := reg.Histogram("tasti_propagate_seconds", nil).Count(); got != 1 {
		t.Errorf("propagate latency observations = %d, want 1", got)
	}
}

func TestBuildStatsString(t *testing.T) {
	s := BuildStats{
		EmbedWall:       120 * time.Millisecond,
		TrainWall:       0,
		ClusterWall:     80 * time.Millisecond,
		RepSelectWall:   30 * time.Millisecond,
		RepLabelWall:    40 * time.Millisecond,
		TableWall:       10 * time.Millisecond,
		TrainLabelCalls: 0,
		RepLabelCalls:   200,
	}
	out := s.String()
	for _, want := range []string{"build phases:", "embed", "cluster", "rep-select", "rep-label", "table", "label calls: 200 (0 train + 200 rep)"} {
		if !strings.Contains(out, want) {
			t.Errorf("String() missing %q:\n%s", want, out)
		}
	}
	// Zero train wall and clean reliability rows stay out of the output.
	for _, unwanted := range []string{"\n  train ", "reliability", "resumed", "degraded"} {
		if strings.Contains(out, unwanted) {
			t.Errorf("String() should omit %q on a clean pretrained build:\n%s", unwanted, out)
		}
	}
	if strings.HasSuffix(out, "\n") {
		t.Error("String() ends with a newline")
	}

	s.LabelRetries = 3
	s.RetryWait = 50 * time.Millisecond
	s.ResumedLabels = 7
	out = s.String()
	if !strings.Contains(out, "reliability: 3 retries") || !strings.Contains(out, "resumed: 7 labels") {
		t.Errorf("String() missing reliability rows:\n%s", out)
	}
}

// BenchmarkBuildTelemetry compares instrumented against disabled-registry
// builds on the same corpus; the delta is the observability layer's whole
// overhead (acceptance bar: <5%). Run both with
// `go test -bench BenchmarkBuildTelemetry -benchtime 5x ./internal/core`.
func BenchmarkBuildTelemetry(b *testing.B) {
	ds, err := dataset.Generate("night-street", 4000, 1)
	if err != nil {
		b.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	for _, mode := range []struct {
		name string
		reg  *telemetry.Registry
	}{
		{"disabled", nil},
		{"enabled", telemetry.NewRegistry()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			cfg := PretrainedConfig(400, 2)
			cfg.Telemetry = mode.reg
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
