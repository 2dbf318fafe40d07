package core

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/telemetry"
)

// publishBuildMetrics pushes a completed build's accounting into the
// registry (no-op when reg is nil): per-phase walls as gauges, label calls
// and reliability overhead as counters, degraded/resumed sets as gauges.
// The per-attempt middleware counters (tasti_labeler_*) are recorded live
// by internal/labeler; these are the end-of-build aggregates.
func publishBuildMetrics(reg *telemetry.Registry, s BuildStats) {
	if reg == nil {
		return
	}
	reg.Counter("tasti_builds_total").Inc()
	phase := func(name string, d time.Duration) {
		reg.Gauge(`tasti_build_phase_seconds{phase="` + name + `"}`).Set(d.Seconds())
	}
	phase("embed", s.EmbedWall)
	phase("train", s.TrainWall)
	phase("cluster", s.ClusterWall)
	phase("rep_select", s.RepSelectWall)
	phase("rep_label", s.RepLabelWall)
	phase("table", s.TableWall)
	reg.Counter(`tasti_build_label_calls_total{phase="train"}`).Add(s.TrainLabelCalls)
	reg.Counter(`tasti_build_label_calls_total{phase="rep"}`).Add(s.RepLabelCalls)
	reg.Counter("tasti_build_label_retries_total").Add(s.LabelRetries)
	reg.Counter("tasti_build_label_timeouts_total").Add(s.LabelTimeouts)
	reg.Gauge("tasti_build_retry_wait_seconds").Set(s.RetryWait.Seconds())
	reg.Gauge("tasti_build_resumed_labels").Set(float64(s.ResumedLabels))
	reg.Gauge(`tasti_build_degraded_records{kind="reps"}`).Set(float64(len(s.DegradedReps)))
	reg.Gauge(`tasti_build_degraded_records{kind="train"}`).Set(float64(len(s.DegradedTrain)))
}

// PublishQuantStats pushes one quantized scan's pruning accounting into the
// registry (no-op when reg is nil): candidates examined on the code plane
// and the subset reranked through the exact kernels. A build calls it once
// for its selection sweep, the shard layer once per crack batch; the live
// rerank rate is tasti_quant_rerank_total / tasti_quant_candidates_total.
func PublishQuantStats(reg *telemetry.Registry, st cluster.QuantScanStats) {
	if reg == nil || st.Candidates == 0 {
		return
	}
	reg.Counter("tasti_quant_candidates_total").Add(st.Candidates)
	reg.Counter("tasti_quant_rerank_total").Add(st.Reranked)
}

// String renders the build's cost breakdown as a phase-timing table — the
// one formatting of BuildStats, shared by cmd/tastiquery, cmd/tastiserve,
// and trace summaries instead of each hand-assembling its own lines.
// Reliability rows (retries, timeouts, resumed, degraded) only appear when
// non-zero, so a clean build prints compactly (table-finish: see RepSelectWall).
func (s BuildStats) String() string {
	var b strings.Builder
	row := func(name string, d time.Duration) {
		fmt.Fprintf(&b, "  %-14s %12s\n", name, d.Round(time.Microsecond))
	}
	b.WriteString("build phases:\n")
	row("embed", s.EmbedWall)
	if s.TrainWall > 0 {
		row("train", s.TrainWall)
	}
	row("cluster", s.ClusterWall)
	row("  rep-select", s.RepSelectWall)
	row("  rep-label", s.RepLabelWall)
	row("  table-finish", s.TableWall)
	fmt.Fprintf(&b, "label calls: %d (%d train + %d rep)",
		s.TotalLabelCalls(), s.TrainLabelCalls, s.RepLabelCalls)
	if s.TripletSteps > 0 {
		fmt.Fprintf(&b, ", %d triplet steps", s.TripletSteps)
	}
	b.WriteByte('\n')
	if s.LabelRetries > 0 || s.LabelTimeouts > 0 {
		fmt.Fprintf(&b, "reliability: %d retries (%s backoff), %d per-call timeouts\n",
			s.LabelRetries, s.RetryWait.Round(time.Millisecond), s.LabelTimeouts)
	}
	if s.ResumedLabels > 0 {
		fmt.Fprintf(&b, "resumed: %d labels already in the label store, spent nothing re-labeling them\n",
			s.ResumedLabels)
	}
	if s.Degraded() {
		fmt.Fprintf(&b, "degraded: built without %d representatives and %d training records (permanently unlabelable)\n",
			len(s.DegradedReps), len(s.DegradedTrain))
	}
	return strings.TrimSuffix(b.String(), "\n")
}
