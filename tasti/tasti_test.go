package tasti_test

import (
	"bytes"
	"testing"

	"repro/tasti"
)

// TestEndToEnd drives the public API the way the README's quickstart does:
// generate a corpus, build an index, persist it, serve it, and run all four
// query types plus cracking on the served index.
func TestEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds, err := tasti.GenerateDataset("night-street", 2500, 3)
	if err != nil {
		t.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)

	cfg := tasti.DefaultConfig(400, 350, tasti.VideoBucketKey(0.5), 3)
	built, err := tasti.Build(cfg, ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if built.Stats.TotalLabelCalls() > 750 {
		t.Errorf("index spent %d labels, budgeted 750", built.Stats.TotalLabelCalls())
	}
	var buf bytes.Buffer
	if err := built.Save(&buf); err != nil {
		t.Fatal(err)
	}
	index, err := tasti.SplitIndex(built, 1)
	if err != nil {
		t.Fatal(err)
	}
	v := index.Pin()

	// Aggregation.
	carCount := tasti.CountScore("car")
	scores, err := v.Propagate(carCount)
	if err != nil {
		t.Fatal(err)
	}
	counting := tasti.NewCountingLabeler(oracle)
	agg, err := tasti.EstimateAggregate(tasti.AggregateOptions{
		ErrTarget: 0.15, Delta: 0.05, MinSamples: 100, Seed: 4,
	}, ds.Len(), scores, carCount, counting)
	if err != nil {
		t.Fatal(err)
	}
	truth := 0.0
	for _, ann := range ds.Truth {
		truth += float64(ann.(tasti.VideoAnnotation).Count("car"))
	}
	truth /= float64(ds.Len())
	if diff := agg.Estimate - truth; diff > 0.3 || diff < -0.3 {
		t.Errorf("estimate %v far from truth %v", agg.Estimate, truth)
	}
	if counting.Calls() != agg.LabelerCalls {
		t.Errorf("metered %d calls, result says %d", counting.Calls(), agg.LabelerCalls)
	}

	// Selection with a recall guarantee.
	hasCar := func(ann tasti.Annotation) bool {
		return ann.(tasti.VideoAnnotation).Count("car") >= 1
	}
	selScores, err := v.Propagate(tasti.MatchScore(hasCar))
	if err != nil {
		t.Fatal(err)
	}
	sel, err := tasti.SelectWithRecall(tasti.SelectOptions{
		Budget: 150, Target: 0.9, Delta: 0.05, Seed: 5,
	}, ds.Len(), selScores, hasCar, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Returned) == 0 {
		t.Error("selection returned nothing")
	}

	// Precision-target variant.
	if _, err := tasti.SelectWithPrecision(tasti.SelectOptions{
		Budget: 150, Target: 0.8, Delta: 0.05, Seed: 6,
	}, ds.Len(), selScores, hasCar, oracle); err != nil {
		t.Fatal(err)
	}

	// Limit query.
	limScores, limDists, err := v.PropagateNearest(carCount)
	if err != nil {
		t.Fatal(err)
	}
	manyCars := func(ann tasti.Annotation) bool {
		return ann.(tasti.VideoAnnotation).Count("car") >= 4
	}
	lim, err := tasti.FindLimit(3, limScores, limDists, manyCars, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if !lim.Exhausted && len(lim.Found) != 3 {
		t.Errorf("limit found %d", len(lim.Found))
	}

	// Threshold selection without guarantees.
	if _, err := tasti.SelectByThreshold(ds.Len(), selScores, 100, hasCar, oracle, 7); err != nil {
		t.Fatal(err)
	}

	// Persistence round trip: the restored index propagates the served bits.
	loaded, err := tasti.LoadIndex(&buf)
	if err != nil {
		t.Fatal(err)
	}
	again, err := loaded.Propagate(carCount)
	if err != nil {
		t.Fatal(err)
	}
	for i := range scores {
		if scores[i] != again[i] {
			t.Fatal("loaded index propagates differently")
		}
	}

	// Cracking through the caching labeler.
	caching := tasti.NewCachingLabeler(oracle)
	if _, err := tasti.EstimateAggregate(tasti.AggregateOptions{
		ErrTarget: 0.2, Delta: 0.05, MinSamples: 50, Seed: 8,
	}, ds.Len(), scores, carCount, caching); err != nil {
		t.Fatal(err)
	}
	paid := map[int]tasti.Annotation{}
	for _, id := range caching.CachedIDs() {
		ann, err := caching.Label(id)
		if err != nil {
			t.Fatal(err)
		}
		paid[id] = ann
	}
	before := index.RepCount()
	if added := index.CrackAll(paid); added == 0 || index.RepCount() != before+added {
		t.Errorf("cracking added %d representatives: %d -> %d", added, before, index.RepCount())
	}
}

func TestPretrainedFacade(t *testing.T) {
	ds, err := tasti.GenerateDataset("common-voice", 800, 2)
	if err != nil {
		t.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "crowd", tasti.HumanCost)
	index, err := tasti.Build(tasti.PretrainedConfig(120, 2), ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	if index.Stats.TrainLabelCalls != 0 {
		t.Error("PT config spent training labels")
	}
	isMale := func(ann tasti.Annotation) bool {
		return ann.(tasti.SpeechAnnotation).Gender == "male"
	}
	if _, err := index.Propagate(tasti.MatchScore(isMale)); err != nil {
		t.Fatal(err)
	}
}
