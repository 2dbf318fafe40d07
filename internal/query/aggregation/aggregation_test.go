package aggregation

import (
	"errors"
	"math"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/stats"
)

func testEnv(t *testing.T, n int) (*dataset.Dataset, labeler.Labeler, []float64) {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	truth := make([]float64, n)
	for i, ann := range ds.Truth {
		truth[i] = float64(ann.(dataset.VideoAnnotation).Count("car"))
	}
	return ds, lab, truth
}

func carCount(ann dataset.Annotation) float64 {
	return float64(ann.(dataset.VideoAnnotation).Count("car"))
}

func TestEstimateAccuracy(t *testing.T) {
	ds, lab, truth := testEnv(t, 4000)
	want := stats.Mean(truth)
	opts := Options{ErrTarget: 0.1, Delta: 0.05, MinSamples: 100, Seed: 2}

	// Run many repetitions with different seeds; the error target should be
	// met at well above the 1-delta rate.
	misses := 0
	const trials = 40
	for trial := 0; trial < trials; trial++ {
		opts.Seed = int64(trial)
		res, err := Estimate(opts, ds.Len(), nil, carCount, lab)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.Estimate-want) > opts.ErrTarget {
			misses++
		}
	}
	if float64(misses)/trials > 0.05 {
		t.Errorf("error target missed in %d/%d trials", misses, trials)
	}
}

func TestControlVariateReducesCalls(t *testing.T) {
	ds, lab, truth := testEnv(t, 4000)
	opts := Options{ErrTarget: 0.08, Delta: 0.05, MinSamples: 100, Seed: 3}

	noProxy, err := Estimate(opts, ds.Len(), nil, carCount, lab)
	if err != nil {
		t.Fatal(err)
	}
	// A perfect proxy: the truth itself. The control variate should all but
	// eliminate sampling.
	perfect, err := Estimate(opts, ds.Len(), truth, carCount, lab)
	if err != nil {
		t.Fatal(err)
	}
	if perfect.LabelerCalls >= noProxy.LabelerCalls {
		t.Errorf("perfect proxy used %d calls vs %d without",
			perfect.LabelerCalls, noProxy.LabelerCalls)
	}
	if math.Abs(perfect.ControlVariateCoeff-1) > 0.2 {
		t.Errorf("control-variate coefficient %v, want ~1", perfect.ControlVariateCoeff)
	}

	// A useless proxy (constant) must not break anything and should not
	// beat the no-proxy run by much.
	useless := make([]float64, ds.Len())
	res, err := Estimate(opts, ds.Len(), useless, carCount, lab)
	if err != nil {
		t.Fatal(err)
	}
	if res.ControlVariateCoeff != 0 {
		t.Errorf("constant proxy got coefficient %v", res.ControlVariateCoeff)
	}
}

func TestEstimateValidation(t *testing.T) {
	_, lab, _ := testEnv(t, 100)
	good := Options{ErrTarget: 0.1, Delta: 0.05, Seed: 1}
	if _, err := Estimate(good, 0, nil, carCount, lab); err == nil {
		t.Error("n=0 should error")
	}
	if _, err := Estimate(good, 100, make([]float64, 5), carCount, lab); err == nil {
		t.Error("proxy length mismatch should error")
	}
	bad := good
	bad.ErrTarget = 0
	if _, err := Estimate(bad, 100, nil, carCount, lab); err == nil {
		t.Error("ErrTarget=0 should error")
	}
	bad = good
	bad.Delta = 1
	if _, err := Estimate(bad, 100, nil, carCount, lab); err == nil {
		t.Error("Delta=1 should error")
	}
}

func TestEstimateRespectsMaxSamples(t *testing.T) {
	ds, lab, _ := testEnv(t, 500)
	opts := Options{ErrTarget: 1e-9, Delta: 0.05, MinSamples: 10, MaxSamples: 50, Seed: 4}
	res, err := Estimate(opts, ds.Len(), nil, carCount, lab)
	if err != nil {
		t.Fatal(err)
	}
	if res.LabelerCalls != 50 {
		t.Errorf("calls = %d, want MaxSamples=50", res.LabelerCalls)
	}
}

func TestExhaustive(t *testing.T) {
	ds, lab, truth := testEnv(t, 300)
	res, err := Exhaustive(ds.Len(), carCount, lab)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Estimate-stats.Mean(truth)) > 1e-9 {
		t.Errorf("exhaustive estimate %v != true mean %v", res.Estimate, stats.Mean(truth))
	}
	if res.LabelerCalls != int64(ds.Len()) {
		t.Errorf("calls = %d", res.LabelerCalls)
	}
	if _, err := Exhaustive(0, carCount, lab); err == nil {
		t.Error("n=0 should error")
	}
}

func TestDirect(t *testing.T) {
	if got := Direct([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Direct = %v", got)
	}
}

func TestPercentError(t *testing.T) {
	if got := PercentError(1.1, 1.0); math.Abs(got-10) > 1e-9 {
		t.Errorf("PercentError = %v", got)
	}
	if got := PercentError(0.02, 0); math.Abs(got-2) > 1e-9 {
		t.Errorf("zero-truth PercentError = %v", got)
	}
}

// TestBudgetExhaustionDegradesEstimate exhausts the label budget mid-query
// and requires a graceful partial answer: the samples bought support an
// estimate flagged Degraded with a widened (honest) confidence radius.
func TestBudgetExhaustionDegradesEstimate(t *testing.T) {
	ds, _, _ := testEnv(t, 200)
	newLab := func() labeler.Labeler {
		return labeler.NewBudgeted(labeler.NewOracle(ds, "o", labeler.MaskRCNNCost), 5)
	}
	opts := Options{ErrTarget: 1e-6, Delta: 0.05, MinSamples: 100, Seed: 5}
	res, err := estimateBoth(t, ds, opts, nil, carCount, newLab)
	if err != nil {
		t.Fatalf("exhaustion mid-query should degrade, not fail: %v", err)
	}
	if !res.Degraded {
		t.Error("truncated estimate not flagged Degraded")
	}
	if res.LabelerCalls != 5 {
		t.Errorf("calls = %d, want the full budget of 5", res.LabelerCalls)
	}
	if res.HalfWidth <= opts.ErrTarget {
		t.Errorf("degraded half-width %v not wider than the target %v", res.HalfWidth, opts.ErrTarget)
	}
}

// TestBudgetExhaustionBeforeAnySamplesFails keeps a budget of zero a hard
// error: with nothing labeled there is no partial estimate to return.
func TestBudgetExhaustionBeforeAnySamplesFails(t *testing.T) {
	ds, _, _ := testEnv(t, 100)
	lab := labeler.NewBudgeted(labeler.NewOracle(ds, "o", labeler.MaskRCNNCost), 0)
	opts := Options{ErrTarget: 0.05, Delta: 0.05, MinSamples: 10, Seed: 5}
	if _, err := Estimate(opts, ds.Len(), nil, carCount, lab); !errors.Is(err, labeler.ErrBudgetExhausted) {
		t.Errorf("err = %v, want ErrBudgetExhausted", err)
	}
}

// TestBudgetAmpleIsBitwiseIdentical runs the same query with and without a
// (never-exhausted) budget wrapper and requires bit-identical results — the
// graceful-exhaustion machinery must cost nothing when budget is ample.
func TestBudgetAmpleIsBitwiseIdentical(t *testing.T) {
	ds, lab, truth := testEnv(t, 300)
	opts := Options{ErrTarget: 0.1, Delta: 0.05, MinSamples: 50, Seed: 9}
	plain, err := estimateBoth(t, ds, opts, truth, carCount, func() labeler.Labeler { return lab })
	if err != nil {
		t.Fatal(err)
	}
	budgeted, err := estimateBoth(t, ds, opts, truth, carCount, func() labeler.Labeler {
		return labeler.NewBudgeted(labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost), 1<<30)
	})
	if err != nil {
		t.Fatal(err)
	}
	if !sameBits(plain, budgeted) {
		t.Errorf("ample budget changed bits:\n got %+v\nwant %+v", budgeted, plain)
	}
}
