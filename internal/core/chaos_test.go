package core

import (
	"errors"
	"math"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/snapshot"
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
// neighbor lists, embeddings (floats by their bits), and annotations — but
// not label-call accounting, which legitimately differs between a fresh and
// a resumed build.
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
			if g[j].Rep != nb.Rep || math.Float64bits(g[j].Dist) != math.Float64bits(nb.Dist) {
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
			if math.Float64bits(got.Embeddings.Row(i)[j]) != math.Float64bits(v) {
				t.Fatalf("embedding[%d][%d] = %v, want %v", i, j, got.Embeddings.Row(i)[j], v)
			}
		}
	}
	if len(got.Annotations) != len(want.Annotations) {
		t.Fatalf("got %d annotations, want %d", len(got.Annotations), len(want.Annotations))
	}
	for id, ann := range want.Annotations {
		if g, ok := got.Annotations[id]; !ok || !reflect.DeepEqual(g, ann) {
			t.Fatalf("annotation for record %d = %v, want %v", id, g, ann)
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
	cfg.Labels = store.New(store.Options{})
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

	// Building again over the same store resumes the degraded build: the
	// permanent failures are not remembered, so it asks each failed record
	// exactly once more and nothing else.
	rec := &recordingLabeler{inner: mkFlaky()}
	again, err := Build(cfg, ds, rec)
	if err != nil {
		t.Fatalf("resumed degraded build: %v", err)
	}
	slices.Sort(rec.ids)
	if !slices.Equal(rec.ids, wantFailed) || !slices.Equal(again.Stats.DegradedReps, wantFailed) {
		t.Fatalf("resumed degraded build asked for %v and degraded %v, want %v both", rec.ids, again.Stats.DegradedReps, wantFailed)
	}
	assertSameIndex(t, ix, again)

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
// surviving ones, in selection order, at any worker count.
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
	for _, p := range []int{1, 4} {
		cfg := base
		cfg.AllowDegraded, cfg.Parallelism = true, p
		tr := telemetry.NewTrace("degraded-build")
		cfg.TraceSpan = tr.Root()
		flaky := labeler.NewFlaky(
			labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost),
			labeler.FlakyConfig{Seed: 1, PermanentIDs: permanent},
		)
		ix, err := Build(cfg, ds, flaky)
		if err != nil {
			t.Fatalf("p=%d: degraded build: %v", p, err)
		}
		if got := tableMode(tr); got != "rescan" {
			t.Errorf("p=%d: cluster/table mode = %q, want rescan", p, got)
		}
		want := cluster.BuildTablePar(ix.Embeddings, live, base.K, 1)
		if !slices.Equal(ix.Table.Reps, want.Reps) || ix.Table.K != want.K {
			t.Fatalf("p=%d: table reps %v (K %d), want %v (K %d)",
				p, ix.Table.Reps, ix.Table.K, want.Reps, want.K)
		}
		for i, nbrs := range want.Neighbors {
			got := ix.Table.Neighbors[i]
			if len(got) != len(nbrs) {
				t.Fatalf("p=%d: record %d has %d neighbors, want %d", p, i, len(got), len(nbrs))
			}
			for j, nb := range nbrs {
				if got[j].Rep != nb.Rep || math.Float64bits(got[j].Dist) != math.Float64bits(nb.Dist) {
					t.Fatalf("p=%d: record %d neighbor %d = %+v, want %+v", p, i, j, got[j], nb)
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

// chaosCorpus is the corpus chaosDataset generates, which the label stores
// of the resume tests are bound to.
var chaosCorpus = store.Corpus{Dataset: "night-street", Size: 400, Seed: 7}

// restoreFile reads a flushed label-store file into a new store, as a
// restarted process does.
func restoreFile(t *testing.T, path string) *store.Store {
	t.Helper()
	labels := store.New(store.Options{Corpus: chaosCorpus})
	if err := snapshot.ReadFile(path, labels.Restore); err != nil {
		t.Fatalf("restoring %s: %v", path, err)
	}
	return labels
}

// recordingLabeler notes every record ID the target labeler is actually
// asked for — the ground truth for "zero re-spent labels" assertions.
type recordingLabeler struct {
	inner labeler.Labeler
	mu    sync.Mutex
	ids   []int
}

func (r *recordingLabeler) Label(id int) (dataset.Annotation, error) {
	r.mu.Lock()
	r.ids = append(r.ids, id)
	r.mu.Unlock()
	return r.inner.Label(id)
}

func (r *recordingLabeler) Name() string            { return r.inner.Name() }
func (r *recordingLabeler) Cost() labeler.CostModel { return r.inner.Cost() }

// TestChaosBuildInterruptedAndResumed kills a build mid-representative-
// labeling with a budget, carries its label store through a snapshot file
// into a new store, and resumes over it with exactly the remaining budget:
// already-labeled reps must cost zero additional invocations, and the
// finished index must match an uninterrupted build bit for bit.
func TestChaosBuildInterruptedAndResumed(t *testing.T) {
	ds := chaosDataset(t)
	base := PretrainedConfig(60, 7)
	base.Parallelism = 1

	clean := buildAt(t, base, ds, 1)

	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	cfg := base
	cfg.Labels = store.New(store.Options{Corpus: chaosCorpus})
	_, err := Build(cfg, ds, labeler.NewBudgeted(oracle, 25))
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
	if cfg.Labels.Len() != 25 {
		t.Fatalf("the store holds %d labels after the interruption, want 25", cfg.Labels.Len())
	}
	if bie.LabelCalls != 25 {
		t.Fatalf("LabelCalls = %d, want 25", bie.LabelCalls)
	}
	if got := cfg.Labels.Len() + len(bie.Pending); got != base.NumReps {
		t.Fatalf("labeled+pending = %d, want %d", got, base.NumReps)
	}

	// Persist the store and restore it, as a killed process would. A label
	// the build does not need is no resumed label.
	path := filepath.Join(t.TempDir(), "labels.snap")
	if err := cfg.Labels.Flush(path); err != nil {
		t.Fatal(err)
	}
	cfg.Labels = restoreFile(t, path)
	isRep := make(map[int]bool, len(clean.Table.Reps))
	for _, rep := range clean.Table.Reps {
		isRep[rep] = true
	}
	unneeded := 0
	for isRep[unneeded] {
		unneeded++
	}
	cfg.Labels.Put(unneeded, ds.Truth[unneeded])

	// Resume with exactly the remaining budget: if any stored rep were
	// re-labeled, the budget would run out and the build would fail.
	ix, err := Build(cfg, ds, labeler.NewBudgeted(oracle, 35))
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
// and resumes over the same store, checking the budget math across both
// labeling phases.
func TestChaosBuildTrainingInterrupted(t *testing.T) {
	ds := chaosDataset(t)
	base := DefaultConfig(30, 40, triplet.VideoBucketKey(0.5), 13)
	base.Train = triplet.DefaultConfig(base.EmbedDim, 13)
	base.Train.Steps = 100
	base.Parallelism = 1

	clean := buildAt(t, base, ds, 1)

	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	cfg := base
	cfg.Labels = store.New(store.Options{})
	_, err := Build(cfg, ds, labeler.NewBudgeted(oracle, 12))
	var bie *BuildInterruptedError
	if !errors.As(err, &bie) {
		t.Fatalf("error = %v, want BuildInterruptedError", err)
	}
	if bie.Phase != "training" {
		t.Fatalf("Phase = %q, want training", bie.Phase)
	}
	if cfg.Labels.Len() != 12 || len(bie.Pending) != base.TrainingBudget-12 {
		t.Fatalf("%d records labeled and %d pending at the interruption, want 12 and %d",
			cfg.Labels.Len(), len(bie.Pending), base.TrainingBudget-12)
	}

	ix, err := Build(cfg, ds, oracle)
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

// flushingLabeler flushes the build's label store to path before its
// calls number after, one of them — the flush loop's ticks, pinned to
// label counts so the test is deterministic.
type flushingLabeler struct {
	inner  labeler.Labeler
	labels *store.Store
	path   string
	after  map[int]bool
	calls  int
	err    error
}

func (f *flushingLabeler) Label(id int) (dataset.Annotation, error) {
	if f.after[f.calls] && f.err == nil {
		f.err = f.labels.Flush(f.path)
	}
	f.calls++
	return f.inner.Label(id)
}

func (f *flushingLabeler) Name() string            { return f.inner.Name() }
func (f *flushingLabeler) Cost() labeler.CostModel { return f.inner.Cost() }

// TestChaosAutoFlushKillAndResume: a build that dies hard between flushes
// of its label store — simulated by discarding ALL in-memory state, the
// store included — resumes from the last flushed file, loses only the labels
// bought since that flush, and re-spends zero invocations on any record the
// file holds.
func TestChaosAutoFlushKillAndResume(t *testing.T) {
	ds := chaosDataset(t)
	base := PretrainedConfig(60, 7)
	base.Parallelism = 1
	clean := buildAt(t, base, ds, 1)

	// Budget 25 of the 60 rep labels: the build dies with 20 labels flushed
	// (after the 10th and the 20th) and 5 more paid for but not yet durable.
	path := filepath.Join(t.TempDir(), "labels.snap")
	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	cfg := base
	cfg.Labels = store.New(store.Options{Corpus: chaosCorpus})
	fl := &flushingLabeler{inner: labeler.NewBudgeted(oracle, 25), labels: cfg.Labels, path: path, after: map[int]bool{10: true, 20: true}}
	_, err := Build(cfg, ds, fl)
	var bie *BuildInterruptedError
	if !errors.As(err, &bie) {
		t.Fatalf("error = %v, want BuildInterruptedError", err)
	}
	if fl.err != nil {
		t.Fatal(fl.err)
	}
	// kill -9: the store is gone. Only the flushed file survives.
	cfg.Labels = restoreFile(t, path)
	if cfg.Labels.Len() != 20 {
		t.Fatalf("the flushed file holds %d labels, want 20", cfg.Labels.Len())
	}
	flushed := cfg.Labels.Annotations()

	// Resume from the flushed file, recording every target-labeler call: none
	// may hit a record the file already paid for.
	rec := &recordingLabeler{inner: oracle}
	ix, err := Build(cfg, ds, rec)
	if err != nil {
		t.Fatalf("resumed build: %v", err)
	}
	for _, id := range rec.ids {
		if _, ok := flushed[id]; ok {
			t.Fatalf("resume re-spent a labeler invocation on flushed record %d", id)
		}
	}
	if ix.Stats.ResumedLabels != 20 {
		t.Fatalf("ResumedLabels = %d, want 20", ix.Stats.ResumedLabels)
	}
	if ix.Stats.RepLabelCalls != 40 {
		t.Fatalf("resumed RepLabelCalls = %d, want 40", ix.Stats.RepLabelCalls)
	}
	assertSameIndex(t, clean, ix)
}

// TestChaosAutoFlushRecordOnly pins that flushing the label store never
// feeds back into the pipeline: with training and rep phases both active
// and the store's flush loop ticking through the build, the built index is
// identical to the unflushed build at every worker count, and the final
// flush holds every annotation the build paid for, training labels included.
func TestChaosAutoFlushRecordOnly(t *testing.T) {
	ds := chaosDataset(t)
	base := DefaultConfig(30, 40, triplet.VideoBucketKey(0.5), 13)
	base.Train = triplet.DefaultConfig(base.EmbedDim, 13)
	base.Train.Steps = 100
	clean := buildAt(t, base, ds, 1)

	for _, p := range []int{1, 4} {
		path := filepath.Join(t.TempDir(), "labels.snap")
		cfg := base
		cfg.Parallelism = p
		cfg.Labels = store.New(store.Options{Corpus: chaosCorpus})
		stop := cfg.Labels.FlushEvery(path, time.Millisecond, func(err error) {
			if err != nil {
				t.Errorf("p=%d: flush: %v", p, err)
			}
		})
		ix, err := Build(cfg, ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
		stop()
		if err != nil {
			t.Fatalf("p=%d: %v", p, err)
		}
		assertSameIndex(t, clean, ix)
		final := restoreFile(t, path).Annotations()
		for id := range ix.Annotations {
			if _, ok := final[id]; !ok {
				t.Fatalf("p=%d: final flush missing annotation for record %d", p, id)
			}
		}
		if got, want := int64(len(final)), ix.Stats.TotalLabelCalls(); got != want {
			t.Fatalf("p=%d: final flush holds %d labels, the build bought %d", p, got, want)
		}
	}
}
