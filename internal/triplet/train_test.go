package triplet

import (
	"errors"
	"math"
	"runtime"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/xrand"
)

func TestLoss(t *testing.T) {
	a := []float64{0, 0}
	p := []float64{1, 0}  // distance 1
	n := []float64{0, 3}  // distance 3
	n2 := []float64{0, 1} // distance 1
	if got := Loss(a, p, n, 1); got != 0 {
		t.Errorf("satisfied triplet loss = %v", got)
	}
	if got := Loss(a, p, n2, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("violating triplet loss = %v, want 1", got)
	}
}

func trainSetup(t *testing.T, n int) (*dataset.Dataset, []int, []dataset.Annotation) {
	t.Helper()
	ds, err := dataset.Generate("common-voice", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	ids := make([]int, 200)
	anns := make([]dataset.Annotation, 200)
	for i := range ids {
		ids[i] = i
		anns[i] = ds.Truth[i]
	}
	return ds, ids, anns
}

func TestTrainReducesTripletLoss(t *testing.T) {
	ds, ids, anns := trainSetup(t, 1000)
	key := SpeechBucketKey()

	cfg := DefaultConfig(16, 3)
	cfg.Steps = 600
	trained, err := Train(cfg, ds, ids, anns, key, 2)
	if err != nil {
		t.Fatal(err)
	}

	pre := embed.NewPretrained(ds.FeatureDim(), 16, 3)
	lossPre, err := EmpiricalLoss(xrand.New(9), pre, ds, ids, anns, key, cfg.Margin, 400)
	if err != nil {
		t.Fatal(err)
	}
	lossTrained, err := EmpiricalLoss(xrand.New(9), trained, ds, ids, anns, key, cfg.Margin, 400)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("triplet loss: pretrained=%.3f trained=%.3f", lossPre, lossTrained)
	if lossTrained >= lossPre {
		t.Errorf("training did not reduce triplet loss: %v >= %v", lossTrained, lossPre)
	}
}

// TestTrainDeterministic: the same config and seed give the same model —
// whatever the worker count — and the worker team is gone when Train
// returns (a leaked, polling helper would tax every query served after the
// build).
func TestTrainDeterministic(t *testing.T) {
	ds, ids, anns := trainSetup(t, 600)
	cfg := DefaultConfig(8, 5)
	cfg.Steps = 50
	goroutines := runtime.NumGoroutine()
	a, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 5)
	if err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > goroutines; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Train, %d before", runtime.NumGoroutine(), goroutines)
		}
	}
	ea := a.Embed(ds.Records[0].Features)
	eb := b.Embed(ds.Records[0].Features)
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatal("same config+seed produced different models")
		}
	}
}

func TestTrainErrors(t *testing.T) {
	ds, ids, anns := trainSetup(t, 600)
	cfg := DefaultConfig(8, 1)
	cfg.EmbedDim = 0
	if _, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 2); err == nil {
		t.Error("EmbedDim=0 should error")
	}
	cfg = DefaultConfig(8, 1)
	cfg.Hidden = []int{-1}
	if _, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 2); err == nil {
		t.Error("negative hidden width should error")
	}
	// A zero batch size (a TrainConfig that sets Steps and leaves BatchSize
	// unset) would run empty steps and return the random-init network.
	cfg = DefaultConfig(8, 1)
	cfg.BatchSize = 0
	if _, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 2); err == nil {
		t.Error("BatchSize=0 should error")
	}
	cfg = DefaultConfig(8, 1)
	cfg.BatchSize = -1
	if _, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 2); err == nil {
		t.Error("negative BatchSize should error")
	}
	cfg = DefaultConfig(8, 1)
	cfg.Steps = -1
	if _, err := Train(cfg, ds, ids, anns, SpeechBucketKey(), 2); err == nil {
		t.Error("negative Steps should error")
	}
	cfg = DefaultConfig(8, 1)
	if _, err := Train(cfg, ds, ids[:3], anns, SpeechBucketKey(), 2); err == nil {
		t.Error("id/annotation mismatch should error")
	}
	// Degenerate bucketing: every record in one bucket.
	oneBucket := func(dataset.Annotation) string { return "all" }
	if _, err := Train(cfg, ds, ids, anns, oneBucket, 2); !errors.Is(err, ErrNoTriplets) {
		t.Errorf("err = %v, want ErrNoTriplets", err)
	}
}

func TestEmpiricalLossNoTriplets(t *testing.T) {
	ds, ids, anns := trainSetup(t, 600)
	pre := embed.NewPretrained(ds.FeatureDim(), 8, 1)
	oneBucket := func(dataset.Annotation) string { return "all" }
	if _, err := EmpiricalLoss(xrand.New(1), pre, ds, ids, anns, oneBucket, 1, 10); !errors.Is(err, ErrNoTriplets) {
		t.Errorf("err = %v, want ErrNoTriplets", err)
	}
}

// TestEmpiricalLossNoSamples: a mean over no samples is 0/0; it must be an
// error, not a NaN with a nil one.
func TestEmpiricalLossNoSamples(t *testing.T) {
	ds, ids, anns := trainSetup(t, 600)
	pre := embed.NewPretrained(ds.FeatureDim(), 8, 1)
	for _, n := range []int{0, -1} {
		if loss, err := EmpiricalLoss(xrand.New(1), pre, ds, ids, anns, VideoBucketKey(0.5), 1, n); err == nil {
			t.Errorf("numSamples=%d: loss %v, nil error", n, loss)
		}
	}
}
