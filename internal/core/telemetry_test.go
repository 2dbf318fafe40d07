package core

import (
	"fmt"
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
	if got := tableMode(tr); got != "sweep" {
		t.Errorf("cluster/table mode = %q, want sweep", got)
	}
}

// tableMode returns the mode attribute of tr's cluster/table span: where the
// build's min-k table came from.
func tableMode(tr *telemetry.Trace) string { return spanAttr(tr, "cluster/table", "mode") }

// spanAttr returns attribute key of tr's first span named name ("" when
// there is none).
func spanAttr(tr *telemetry.Trace, name, key string) string {
	var find func(s telemetry.SpanSnapshot) string
	find = func(s telemetry.SpanSnapshot) string {
		if s.Name == name {
			for _, a := range s.Attrs {
				if a.Key == key {
					return a.Value
				}
			}
		}
		for _, c := range s.Children {
			if m := find(c); m != "" {
				return m
			}
		}
		return ""
	}
	return find(tr.SnapshotTree())
}

// TestFitSpanCountsWorkerInvariant: the train/fit span reports how many of
// its steps moved the weights and how many rows they forwarded. Both are
// deterministic, so they read the same at -parallelism 1 and 2; and since
// most triplets meet the margin, most steps are idle and the fit forwards
// fewer rows than its steps read.
func TestFitSpanCountsWorkerInvariant(t *testing.T) {
	ds, err := dataset.Generate("night-street", 1200, 7)
	if err != nil {
		t.Fatal(err)
	}
	base := DefaultConfig(150, 120, triplet.VideoBucketKey(0.5), 7)
	var counts [2][3]string
	for i, p := range []int{1, 2} {
		cfg := base
		cfg.Parallelism = p
		tr := telemetry.NewTrace("fit")
		cfg.TraceSpan = tr.Root()
		if _, err := Build(cfg, ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)); err != nil {
			t.Fatal(err)
		}
		tr.Finish()
		for k, key := range []string{"steps", "active_steps", "forwarded_rows"} {
			counts[i][k] = spanAttr(tr, "train/fit", key)
		}
	}
	if counts[0] != counts[1] {
		t.Fatalf("train/fit steps, active_steps, forwarded_rows = %v at -parallelism 1, %v at 2", counts[0], counts[1])
	}
	var steps, active, forwarded int
	if _, err := fmt.Sscan(strings.Join(counts[0][:], " "), &steps, &active, &forwarded); err != nil {
		t.Fatalf("train/fit attrs %v: %v", counts[0], err)
	}
	// The build trains at the default config: three records a triplet.
	read := steps * triplet.DefaultConfig(base.EmbedDim, base.Seed).BatchSize * 3
	t.Logf("train/fit: %d of %d steps active, %d rows forwarded of %d read", active, steps, forwarded, read)
	if active <= 0 || active >= steps || forwarded <= 0 || forwarded >= read {
		t.Errorf("train/fit: %d of %d steps active, %d rows forwarded of %d read", active, steps, forwarded, read)
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
