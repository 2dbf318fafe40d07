package core

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/triplet"
)

func buildTestIndex(t *testing.T, cfg Config, dsName string, n int) (*Index, *dataset.Dataset, labeler.Labeler) {
	t.Helper()
	ds, err := dataset.Generate(dsName, n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := Build(cfg, ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds, lab
}

func fastConfig(train, reps int) Config {
	cfg := DefaultConfig(train, reps, triplet.VideoBucketKey(0.5), 3)
	cfg.Train = triplet.DefaultConfig(cfg.EmbedDim, cfg.Seed)
	cfg.Train.Steps = 120
	return cfg
}

func TestBuildAccounting(t *testing.T) {
	ix, ds, _ := buildTestIndex(t, fastConfig(100, 80), "night-street", 800)
	if ix.Stats.TrainLabelCalls != 100 {
		t.Errorf("TrainLabelCalls = %d", ix.Stats.TrainLabelCalls)
	}
	// Representatives overlapping the training set are served from cache,
	// so rep calls never exceed the rep count.
	if ix.Stats.RepLabelCalls > 80 {
		t.Errorf("RepLabelCalls = %d", ix.Stats.RepLabelCalls)
	}
	if ix.Stats.TotalLabelCalls() != ix.Stats.TrainLabelCalls+ix.Stats.RepLabelCalls {
		t.Error("TotalLabelCalls inconsistent")
	}
	if ix.NumRecords() != ds.Len() {
		t.Errorf("NumRecords = %d", ix.NumRecords())
	}
	if len(ix.Table.Reps) != 80 {
		t.Errorf("reps = %d", len(ix.Table.Reps))
	}
	if len(ix.Annotations) != 80 {
		t.Errorf("annotations = %d", len(ix.Annotations))
	}
	if err := ix.Table.Validate(); err != nil {
		t.Error(err)
	}
}

// TestBuildFailsCleanlyOnBudgetExhaustion injects a labeler failure mid
// construction and checks Build surfaces it as an error instead of
// panicking or returning a half-built index.
func TestBuildFailsCleanlyOnBudgetExhaustion(t *testing.T) {
	ds, err := dataset.Generate("night-street", 400, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	budgeted := labeler.NewBudgeted(oracle, 30) // less than the 50 training labels needed
	cfg := fastConfig(50, 40)
	ix, err := Build(cfg, ds, budgeted)
	if !errors.Is(err, labeler.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion", err)
	}
	if ix != nil {
		t.Error("failed build returned an index")
	}

	// Enough for training but not for all representatives.
	budgeted = labeler.NewBudgeted(oracle, 60)
	ix, err = Build(cfg, ds, budgeted)
	if !errors.Is(err, labeler.ErrBudgetExhausted) {
		t.Fatalf("err = %v, want budget exhaustion in rep phase", err)
	}
	if ix != nil {
		t.Error("failed build returned an index")
	}
}

func TestPretrainedBuildSpendsNoTrainingLabels(t *testing.T) {
	ix, _, _ := buildTestIndex(t, PretrainedConfig(60, 2), "night-street", 600)
	if ix.Stats.TrainLabelCalls != 0 {
		t.Errorf("TASTI-PT spent %d training labels", ix.Stats.TrainLabelCalls)
	}
	if ix.Stats.TripletSteps != 0 {
		t.Error("TASTI-PT should not train")
	}
	if ix.Embedder.Name() != "pretrained" {
		t.Errorf("embedder = %s", ix.Embedder.Name())
	}
}

func TestBuildConfigValidation(t *testing.T) {
	ds, err := dataset.Generate("night-street", 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "o", labeler.MaskRCNNCost)
	bad := []Config{
		{},
		{NumReps: 10},       // K missing
		{NumReps: 10, K: 1}, // EmbedDim missing
		{NumReps: 10, K: 1, EmbedDim: 8, DoTrain: true, TrainingBudget: 1}, // budget too small
		{NumReps: 10, K: 1, EmbedDim: 8, DoTrain: true, TrainingBudget: 5}, // BucketKey missing
	}
	for i, cfg := range bad {
		if _, err := Build(cfg, ds, lab); err == nil {
			t.Errorf("config %d should fail", i)
		}
	}
	if _, err := Build(PretrainedConfig(5, 1), &dataset.Dataset{}, lab); err == nil {
		t.Error("empty dataset should fail")
	}
}

func TestPropagateExactOnReps(t *testing.T) {
	ix, ds, _ := buildTestIndex(t, PretrainedConfig(70, 2), "night-street", 700)
	score := CountScore("car")
	scores, err := ix.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != ds.Len() {
		t.Fatalf("got %d scores", len(scores))
	}
	for _, rep := range ix.Table.Reps {
		want := score(ds.Truth[rep])
		if scores[rep] != want {
			t.Errorf("rep %d score %v, want exact %v", rep, scores[rep], want)
		}
	}
}

func TestPropagateBounds(t *testing.T) {
	// Propagated scores are convex combinations of representative scores,
	// so they stay within the reps' min/max.
	ix, ds, _ := buildTestIndex(t, PretrainedConfig(50, 2), "night-street", 500)
	score := CountScore("car")
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, rep := range ix.Table.Reps {
		v := score(ds.Truth[rep])
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	scores, err := ix.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range scores {
		if v < lo-1e-9 || v > hi+1e-9 {
			t.Fatalf("record %d score %v outside [%v,%v]", i, v, lo, hi)
		}
	}
}

func TestPropagateMissingAnnotation(t *testing.T) {
	ix, _, _ := buildTestIndex(t, PretrainedConfig(30, 2), "night-street", 300)
	delete(ix.Annotations, ix.Table.Reps[0])
	if _, err := ix.Propagate(CountScore("car")); err == nil {
		t.Error("missing annotation should error")
	}
}

func TestBuiltinScores(t *testing.T) {
	ann := dataset.VideoAnnotation{Boxes: []dataset.Box{
		{Class: "car", X: 0.2}, {Class: "car", X: 0.6}, {Class: "bus", X: 0.9},
	}}
	if CountScore("car")(ann) != 2 || CountScore("")(ann) != 3 {
		t.Error("CountScore wrong")
	}
	if CountScore("car")(dataset.TextAnnotation{}) != 0 {
		t.Error("CountScore on non-video should be 0")
	}
	pred := func(a dataset.Annotation) bool { return a.(dataset.VideoAnnotation).Count("bus") > 0 }
	if MatchScore(pred)(ann) != 1 {
		t.Error("MatchScore true case")
	}
	if MatchScore(pred)(dataset.VideoAnnotation{}) != 0 {
		t.Error("MatchScore false case")
	}
	if got := AvgXScore("car")(ann); math.Abs(got-0.4) > 1e-12 {
		t.Errorf("AvgXScore = %v", got)
	}
	if got := AvgXScore("car")(dataset.VideoAnnotation{}); got != 0.5 {
		t.Errorf("AvgXScore neutral = %v", got)
	}
}
