package proxy

import (
	"testing"

	"repro/internal/dataset"
	"repro/internal/stats"
	"repro/internal/xrand"
)

func proxyEnv(t *testing.T, n int) (*dataset.Dataset, []float64) {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	truth := make([]float64, n)
	for i, ann := range ds.Truth {
		truth[i] = float64(ann.(dataset.VideoAnnotation).Count("car"))
	}
	return ds, truth
}

func TestRegressionLearnsCounts(t *testing.T) {
	ds, truth := proxyEnv(t, 3000)
	r := xrand.New(2)
	ids := xrand.SampleWithoutReplacement(r, ds.Len(), 1500)
	targets := make([]float64, len(ids))
	for i, id := range ids {
		targets[i] = truth[id]
	}
	m, err := Train(DefaultConfig(Regression, 3), ds, ids, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	scores := m.Scores(ds)
	if len(scores) != ds.Len() {
		t.Fatalf("got %d scores", len(scores))
	}
	if r2 := stats.RSquared(scores, truth); r2 < 0.3 {
		t.Errorf("regression rho^2 = %v, want learnable signal", r2)
	}
}

func TestClassificationProbabilities(t *testing.T) {
	ds, truth := proxyEnv(t, 2500)
	r := xrand.New(4)
	ids := xrand.SampleWithoutReplacement(r, ds.Len(), 1200)
	targets := make([]float64, len(ids))
	for i, id := range ids {
		if truth[id] >= 1 {
			targets[i] = 1
		}
	}
	m, err := Train(DefaultConfig(Classification, 5), ds, ids, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	// Scores must be probabilities.
	var posMean, negMean float64
	var np, nn int
	for i, s := range m.Scores(ds) {
		if s < 0 || s > 1 {
			t.Fatalf("score %v outside [0,1]", s)
		}
		if truth[i] >= 1 {
			posMean += s
			np++
		} else {
			negMean += s
			nn++
		}
	}
	posMean /= float64(np)
	negMean /= float64(nn)
	if posMean <= negMean {
		t.Errorf("positives score %v <= negatives %v", posMean, negMean)
	}
}

func TestTrainDeterministic(t *testing.T) {
	ds, truth := proxyEnv(t, 800)
	ids := []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	targets := make([]float64, len(ids))
	for i, id := range ids {
		targets[i] = truth[id]
	}
	cfg := DefaultConfig(Regression, 7)
	cfg.Epochs = 3
	a, err := Train(cfg, ds, ids, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Train(cfg, ds, ids, targets, 2)
	if err != nil {
		t.Fatal(err)
	}
	if a.Score(ds.Records[0].Features) != b.Score(ds.Records[0].Features) {
		t.Error("same seed produced different models")
	}
}

func TestTrainValidation(t *testing.T) {
	ds, _ := proxyEnv(t, 100)
	cfg := DefaultConfig(Regression, 1)
	if _, err := Train(cfg, ds, nil, nil, 2); err == nil {
		t.Error("empty training set should error")
	}
	if _, err := Train(cfg, ds, []int{1, 2}, []float64{1}, 2); err == nil {
		t.Error("length mismatch should error")
	}
	bad := cfg
	bad.Hidden = 0
	if _, err := Train(bad, ds, []int{1}, []float64{1}, 2); err == nil {
		t.Error("Hidden=0 should error")
	}
	bad = cfg
	bad.Kind = Kind(99)
	if _, err := Train(bad, ds, []int{1}, []float64{1}, 2); err == nil {
		t.Error("unknown kind should error")
	}
}
