package tasti_test

import (
	"fmt"
	"log"

	"repro/tasti"
)

// Example demonstrates the core flow: build one index, answer an
// aggregation query with an error guarantee.
func Example() {
	ds, err := tasti.GenerateDataset("night-street", 3000, 1)
	if err != nil {
		log.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)

	cfg := tasti.DefaultConfig(400, 400, tasti.VideoBucketKey(0.5), 1)
	cfg.Train = tasti.TrainConfig{Hidden: []int{64}, Margin: 1, Steps: 300, BatchSize: 16, LR: 3e-3, Seed: 1}
	index, err := tasti.Build(cfg, ds, oracle)
	if err != nil {
		log.Fatal(err)
	}

	carCount := tasti.CountScore("car")
	scores, err := index.Propagate(carCount)
	if err != nil {
		log.Fatal(err)
	}
	res, err := tasti.EstimateAggregate(tasti.AggregateOptions{
		ErrTarget: 0.2, Delta: 0.05, MinSamples: 100, Seed: 2,
	}, ds.Len(), scores, carCount, oracle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("estimate within ±0.2 of the true mean: %t\n", res.HalfWidth <= 0.2)
	// Output: estimate within ±0.2 of the true mean: true
}

// ExampleIndexVersion_PropagateNearest shows the limit-query scoring on the
// served index: k=1 propagation with distance tie-breaking.
func ExampleIndexVersion_PropagateNearest() {
	ds, err := tasti.GenerateDataset("night-street", 2000, 3)
	if err != nil {
		log.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)
	built, err := tasti.Build(tasti.PretrainedConfig(200, 3), ds, oracle)
	if err != nil {
		log.Fatal(err)
	}
	index, err := tasti.SplitIndex(built, 1)
	if err != nil {
		log.Fatal(err)
	}

	v := index.Pin()
	scores, dists, err := v.PropagateNearest(tasti.CountScore("car"), nil)
	if err != nil {
		log.Fatal(err)
	}
	// Label frames in descending score order, ties by the distance to the
	// nearest representative, until three have four cars or more.
	found := 0
	for _, id := range v.LimitOrder(scores, dists) {
		ann, err := oracle.Label(id)
		if err != nil {
			log.Fatal(err)
		}
		if ann.(tasti.VideoAnnotation).Count("car") >= 4 {
			if found++; found == 3 {
				break
			}
		}
	}
	fmt.Printf("found %d matching frames\n", found)
	// Output: found 3 matching frames
}

// ExampleSelectWithRecall shows guaranteed-recall selection over the text
// corpus with a crowd labeler.
func ExampleSelectWithRecall() {
	ds, err := tasti.GenerateDataset("wikisql", 2000, 5)
	if err != nil {
		log.Fatal(err)
	}
	crowd := tasti.NewOracle(ds, "crowd", tasti.HumanCost)
	cfg := tasti.DefaultConfig(250, 250, tasti.TextBucketKey(), 5)
	cfg.Train = tasti.TrainConfig{Hidden: []int{64}, Margin: 1, Steps: 300, BatchSize: 16, LR: 3e-3, Seed: 5}
	index, err := tasti.Build(cfg, ds, crowd)
	if err != nil {
		log.Fatal(err)
	}

	isSelect := func(ann tasti.Annotation) bool {
		return ann.(tasti.TextAnnotation).Operator == "SELECT"
	}
	scores, err := index.Propagate(tasti.MatchScore(isSelect))
	if err != nil {
		log.Fatal(err)
	}
	res, err := tasti.SelectWithRecall(tasti.SelectOptions{
		Budget: 100, Target: 0.9, Delta: 0.05, Seed: 6,
	}, ds.Len(), scores, isSelect, crowd)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("spent the whole budget: %t\n", res.OracleCalls == 100)
	// Output: spent the whole budget: true
}
