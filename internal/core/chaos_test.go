package core

import (
	"bytes"
	"errors"
	"math"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
	"repro/internal/triplet"
)

// chaosDataset is shared by the chaos tests; small enough for the -race CI
// variant, large enough that FPF sweeps and the min-k table do real work.
func chaosDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate("night-street", 400, 7)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// assertSameIndex compares everything queries can observe — representatives,
// neighbor lists, embeddings, and annotations — but not label-call
// accounting, which legitimately differs between a fresh and a resumed build.
func assertSameIndex(t *testing.T, want, got *Index) {
	t.Helper()
	if len(got.Table.Reps) != len(want.Table.Reps) {
		t.Fatalf("got %d reps, want %d", len(got.Table.Reps), len(want.Table.Reps))
	}
	for i, rep := range want.Table.Reps {
		if got.Table.Reps[i] != rep {
			t.Fatalf("rep[%d] = %d, want %d", i, got.Table.Reps[i], rep)
		}
	}
	for i, nbrs := range want.Table.Neighbors {
		g := got.Table.Neighbors[i]
		if len(g) != len(nbrs) {
			t.Fatalf("record %d has %d neighbors, want %d", i, len(g), len(nbrs))
		}
		for j, nb := range nbrs {
			if g[j] != nb {
				t.Fatalf("record %d neighbor %d = %+v, want %+v", i, j, g[j], nb)
			}
		}
	}
	if got.Embeddings.Rows() != want.Embeddings.Rows() || got.Embeddings.Dim() != want.Embeddings.Dim() {
		t.Fatalf("embeddings %dx%d, want %dx%d",
			got.Embeddings.Rows(), got.Embeddings.Dim(), want.Embeddings.Rows(), want.Embeddings.Dim())
	}
	for i := 0; i < want.Embeddings.Rows(); i++ {
		for j, v := range want.Embeddings.Row(i) {
			if got.Embeddings.Row(i)[j] != v {
				t.Fatalf("embedding[%d][%d] = %v, want %v", i, j, got.Embeddings.Row(i)[j], v)
			}
		}
	}
	if len(got.Annotations) != len(want.Annotations) {
		t.Fatalf("got %d annotations, want %d", len(got.Annotations), len(want.Annotations))
	}
	for id := range want.Annotations {
		if _, ok := got.Annotations[id]; !ok {
			t.Fatalf("annotation for record %d missing", id)
		}
	}
}

// TestChaosBuildRetryBitwiseIdentical is the tentpole guarantee: a build
// whose labeler injects seeded transient faults at substantial rates, wrapped
// in retry middleware, produces an index bitwise identical to the fault-free
// build — at every worker count.
func TestChaosBuildRetryBitwiseIdentical(t *testing.T) {
	ds := chaosDataset(t)
	base := DefaultConfig(40, 60, triplet.VideoBucketKey(0.5), 11)
	base.Train = triplet.DefaultConfig(base.EmbedDim, 11)
	base.Train.Steps = 150

	clean := buildAt(t, base, ds, 1)

	for _, rate := range []float64{0.05, 0.2, 0.5} {
		for _, p := range []int{1, 4} {
			cfg := base
			cfg.Parallelism = p
			cfg.Retry = labeler.DefaultRetryPolicy(99)
			cfg.Retry.BaseDelay = 0 // keep the test fast; jitter still exercised
			flaky := labeler.NewFlaky(
				labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost),
				labeler.FlakyConfig{Seed: 42, TransientRate: rate, MaxConsecutive: 3},
			)
			ix, err := Build(cfg, ds, flaky)
			if err != nil {
				t.Fatalf("rate=%v p=%d: %v", rate, p, err)
			}
			assertIndexesIdentical(t, clean, ix, p)
			if rate >= 0.2 && ix.Stats.LabelRetries == 0 {
				t.Fatalf("rate=%v p=%d: expected retries, got none", rate, p)
			}
			if ix.Stats.Degraded() {
				t.Fatalf("rate=%v p=%d: transient faults must not degrade the index", rate, p)
			}
		}
	}
}

// TestChaosDegradedBuild injects permanent failures and checks that a
// degraded build drops exactly the injected records — no more, no fewer —
// and still serves queries over the surviving representatives.
func TestChaosDegradedBuild(t *testing.T) {
	ds := chaosDataset(t)
	base := PretrainedConfig(60, 7)

	// The rep set is label-independent under TASTI-PT, so a fault-free build
	// tells us which records the degraded build will try to label.
	clean := buildAt(t, base, ds, 1)
	reps := clean.Table.Reps
	failed := []int{reps[3], reps[17], reps[41]}
	isRep := make(map[int]bool, len(reps))
	for _, r := range reps {
		isRep[r] = true
	}
	nonRep := 0
	for isRep[nonRep] {
		nonRep++
	}

	cfg := base
	cfg.AllowDegraded = true
	cfg.Parallelism = 4
	mkFlaky := func() *labeler.Flaky {
		return labeler.NewFlaky(
			labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost),
			labeler.FlakyConfig{Seed: 1, PermanentIDs: append([]int{nonRep}, failed...)},
		)
	}
	ix, err := Build(cfg, ds, mkFlaky())
	if err != nil {
		t.Fatalf("degraded build: %v", err)
	}
	if !ix.Stats.Degraded() {
		t.Fatal("Stats.Degraded() = false, want true")
	}
	wantFailed := append([]int(nil), failed...)
	sort.Ints(wantFailed)
	if len(ix.Stats.DegradedReps) != len(wantFailed) {
		t.Fatalf("DegradedReps = %v, want %v", ix.Stats.DegradedReps, wantFailed)
	}
	for i, id := range wantFailed {
		if ix.Stats.DegradedReps[i] != id {
			t.Fatalf("DegradedReps = %v, want %v", ix.Stats.DegradedReps, wantFailed)
		}
	}
	if got, want := len(ix.Table.Reps), len(reps)-len(failed); got != want {
		t.Fatalf("table has %d reps, want %d", got, want)
	}
	for _, id := range failed {
		if _, ok := ix.Annotations[id]; ok {
			t.Fatalf("failed rep %d still has an annotation", id)
		}
	}
	// Propagation must re-weight over the surviving reps only.
	scores, err := ix.Propagate(CountScore("car"))
	if err != nil {
		t.Fatalf("propagating over degraded index: %v", err)
	}
	if len(scores) != ds.Len() {
		t.Fatalf("got %d scores, want %d", len(scores), ds.Len())
	}

	// The same faults without AllowDegraded must interrupt, not degrade.
	strict := base
	strict.Parallelism = 1
	if _, err := Build(strict, ds, mkFlaky()); err == nil {
		t.Fatal("strict build succeeded despite permanent failures")
	} else {
		var bie *BuildInterruptedError
		if !errors.As(err, &bie) {
			t.Fatalf("strict build error = %v, want BuildInterruptedError", err)
		}
		if !errors.Is(err, labeler.ErrPermanent) {
			t.Fatalf("strict build error %v does not unwrap to ErrPermanent", err)
		}
	}
}

// TestDegradedBuildTableMatchesRescan: a build that drops representatives
// cannot use the selection sweep's lists, which cover every selected
// representative; its table must still be bitwise BuildTablePar over the
// surviving ones, in selection order, on either plane at any worker count.
func TestDegradedBuildTableMatchesRescan(t *testing.T) {
	ds := chaosDataset(t)
	base := PretrainedConfig(40, 7)
	reps := buildAt(t, base, ds, 1).Table.Reps
	failed := map[int]bool{reps[0]: true, reps[9]: true, reps[len(reps)-1]: true}
	var live, permanent []int
	for _, rep := range reps {
		if failed[rep] {
			permanent = append(permanent, rep)
		} else {
			live = append(live, rep)
		}
	}
	for _, quantize := range []bool{false, true} {
		for _, p := range []int{1, 4} {
			cfg := base
			cfg.AllowDegraded, cfg.Quantize, cfg.Parallelism = true, quantize, p
			tr := telemetry.NewTrace("degraded-build")
			cfg.TraceSpan = tr.Root()
			flaky := labeler.NewFlaky(
				labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost),
				labeler.FlakyConfig{Seed: 1, PermanentIDs: permanent},
			)
			ix, err := Build(cfg, ds, flaky)
			if err != nil {
				t.Fatalf("quantize %v, p=%d: degraded build: %v", quantize, p, err)
			}
			if got := tableMode(tr); got != "rescan" {
				t.Errorf("quantize %v, p=%d: cluster/table mode = %q, want rescan", quantize, p, got)
			}
			want := cluster.BuildTablePar(ix.Embeddings, live, base.K, 1)
			if !slices.Equal(ix.Table.Reps, want.Reps) || ix.Table.K != want.K {
				t.Fatalf("quantize %v, p=%d: table reps %v (K %d), want %v (K %d)",
					quantize, p, ix.Table.Reps, ix.Table.K, want.Reps, want.K)
			}
			for i, nbrs := range want.Neighbors {
				got := ix.Table.Neighbors[i]
				if len(got) != len(nbrs) {
					t.Fatalf("quantize %v, p=%d: record %d has %d neighbors, want %d", quantize, p, i, len(got), len(nbrs))
				}
				for j, nb := range nbrs {
					if got[j].Rep != nb.Rep || math.Float64bits(got[j].Dist) != math.Float64bits(nb.Dist) {
						t.Fatalf("quantize %v, p=%d: record %d neighbor %d = %+v, want %+v", quantize, p, i, j, got[j], nb)
					}
				}
			}
		}
	}
}

// TestChaosDegradedBuildClampsK drops so many representatives that fewer
// than K survive; the min-k table must clamp rather than fail.
func TestChaosDegradedBuildClampsK(t *testing.T) {
	ds := chaosDataset(t)
	base := PretrainedConfig(6, 7)
	clean := buildAt(t, base, ds, 1)
	failed := append([]int(nil), clean.Table.Reps[:3]...)

	cfg := base
	cfg.AllowDegraded = true
	flaky := labeler.NewFlaky(
		labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost),
		labeler.FlakyConfig{Seed: 1, PermanentIDs: failed},
	)
	ix, err := Build(cfg, ds, flaky)
	if err != nil {
		t.Fatalf("degraded build: %v", err)
	}
	if got := len(ix.Table.Reps); got != 3 {
		t.Fatalf("table has %d reps, want 3", got)
	}
	for i, nbrs := range ix.Table.Neighbors {
		if len(nbrs) != 3 {
			t.Fatalf("record %d has %d neighbors, want K clamped to 3", i, len(nbrs))
		}
	}
}

// TestChaosBuildInterruptedAndResumed kills a build mid-representative-
// labeling with a budget, round-trips the checkpoint through gob, and
// resumes with exactly the remaining budget: already-labeled reps must cost
// zero additional invocations, and the finished index must match an
// uninterrupted build.
func TestChaosBuildInterruptedAndResumed(t *testing.T) {
	ds := chaosDataset(t)
	base := PretrainedConfig(60, 7)
	base.Parallelism = 1

	clean := buildAt(t, base, ds, 1)

	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	_, err := Build(base, ds, labeler.NewBudgeted(oracle, 25))
	if err == nil {
		t.Fatal("budgeted build succeeded, want interruption")
	}
	var bie *BuildInterruptedError
	if !errors.As(err, &bie) {
		t.Fatalf("error = %v, want BuildInterruptedError", err)
	}
	if !errors.Is(err, labeler.ErrBudgetExhausted) {
		t.Fatalf("error %v does not unwrap to ErrBudgetExhausted", err)
	}
	if bie.Phase != "representatives" {
		t.Fatalf("Phase = %q, want representatives", bie.Phase)
	}
	if len(bie.Labeled) != 25 {
		t.Fatalf("%d reps labeled before interruption, want 25", len(bie.Labeled))
	}
	if bie.LabelCalls != 25 {
		t.Fatalf("LabelCalls = %d, want 25", bie.LabelCalls)
	}
	if got := len(bie.Labeled) + len(bie.Pending); got != base.NumReps {
		t.Fatalf("labeled+pending = %d, want %d", got, base.NumReps)
	}

	// Persist and restore the checkpoint, as a killed process would.
	var buf bytes.Buffer
	if err := bie.Checkpoint.Save(&buf); err != nil {
		t.Fatalf("saving checkpoint: %v", err)
	}
	ckpt, err := LoadCheckpoint(&buf)
	if err != nil {
		t.Fatalf("loading checkpoint: %v", err)
	}

	// Resume with exactly the remaining budget: if any checkpointed rep were
	// re-labeled, the budget would run out and the build would fail.
	ix, err := BuildResumable(base, ds, labeler.NewBudgeted(oracle, 35), ckpt)
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	if ix.Stats.ResumedLabels != 25 {
		t.Fatalf("ResumedLabels = %d, want 25", ix.Stats.ResumedLabels)
	}
	if ix.Stats.RepLabelCalls != 35 {
		t.Fatalf("resumed RepLabelCalls = %d, want 35", ix.Stats.RepLabelCalls)
	}
	assertSameIndex(t, clean, ix)
}

// TestChaosBuildTrainingInterrupted interrupts during training-set labeling
// and resumes, checking the budget math across both labeling phases.
func TestChaosBuildTrainingInterrupted(t *testing.T) {
	ds := chaosDataset(t)
	base := DefaultConfig(30, 40, triplet.VideoBucketKey(0.5), 13)
	base.Train = triplet.DefaultConfig(base.EmbedDim, 13)
	base.Train.Steps = 100
	base.Parallelism = 1

	clean := buildAt(t, base, ds, 1)

	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	_, err := Build(base, ds, labeler.NewBudgeted(oracle, 12))
	var bie *BuildInterruptedError
	if !errors.As(err, &bie) {
		t.Fatalf("error = %v, want BuildInterruptedError", err)
	}
	if bie.Phase != "training" {
		t.Fatalf("Phase = %q, want training", bie.Phase)
	}
	if len(bie.Labeled) != 12 {
		t.Fatalf("%d records labeled before interruption, want 12", len(bie.Labeled))
	}

	ix, err := BuildResumable(base, ds, oracle, bie.Checkpoint)
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	if ix.Stats.ResumedLabels != 12 {
		t.Fatalf("ResumedLabels = %d, want 12", ix.Stats.ResumedLabels)
	}
	if got, want := ix.Stats.TrainLabelCalls, int64(base.TrainingBudget-12); got != want {
		t.Fatalf("resumed TrainLabelCalls = %d, want %d", got, want)
	}
	if got, want := ix.Stats.TotalLabelCalls(), clean.Stats.TotalLabelCalls()-12; got != want {
		t.Fatalf("resumed TotalLabelCalls = %d, want %d", got, want)
	}
	assertSameIndex(t, clean, ix)
}

// TestChaosCheckpointCompatibility: a checkpoint from one build
// configuration must not silently resume a different one.
func TestChaosCheckpointCompatibility(t *testing.T) {
	ds := chaosDataset(t)
	cfg := PretrainedConfig(40, 7)
	ckpt := NewCheckpoint(cfg, ds)

	other := cfg
	other.Seed = 8
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	if _, err := BuildResumable(other, ds, lab, ckpt); err == nil {
		t.Fatal("resume accepted a checkpoint from a different seed")
	}

	smaller, err := dataset.Generate("night-street", 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildResumable(cfg, smaller, labeler.NewOracle(smaller, "oracle", labeler.MaskRCNNCost), ckpt); err == nil {
		t.Fatal("resume accepted a checkpoint from a different dataset")
	}
}
