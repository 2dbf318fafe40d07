// Cracking demonstrates TASTI's index cracking (paper Section 3.3): every
// target-labeler result a query pays for is folded back into the index as a
// new cluster representative, so later queries see better proxy scores for
// free. An aggregation query runs first; the labels it gathered then sharpen
// a selection query over the same video.
package main

import (
	"fmt"
	"log"

	"repro/tasti"
)

func main() {
	const (
		frames = 10000
		seed   = 5
	)
	ds, err := tasti.GenerateDataset("night-street", frames, seed)
	if err != nil {
		log.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)

	built, err := tasti.Build(tasti.DefaultConfig(500, 700, tasti.VideoBucketKey(0.5), seed), ds, oracle)
	if err != nil {
		log.Fatal(err)
	}
	// Serve it: a one-shard index takes cracks as copy-on-write versions.
	index, err := tasti.SplitIndex(built, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("index: %d representatives\n", index.RepCount())

	hasCar := func(ann tasti.Annotation) bool {
		return ann.(tasti.VideoAnnotation).Count("car") >= 1
	}

	// Baseline: the selection query on the fresh index.
	fprBefore, err := runSelection(index, ds, hasCar, oracle, seed)
	if err != nil {
		log.Fatal(err)
	}

	// First query: estimate the average car count. Routing the labeler
	// through a cache collects every annotation the query pays for.
	carCount := tasti.CountScore("car")
	aggScores, err := index.Propagate(carCount)
	if err != nil {
		log.Fatal(err)
	}
	caching := tasti.NewCachingLabeler(oracle)
	aggRes, err := tasti.EstimateAggregate(tasti.AggregateOptions{
		ErrTarget: 0.08, Delta: 0.05, MinSamples: 100, Seed: seed + 3,
	}, ds.Len(), aggScores, carCount, caching)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("aggregation query: %.3f cars/frame in %d target calls\n",
		aggRes.Estimate, aggRes.LabelerCalls)

	// Crack: insert the paid-for labels as new representatives.
	paid := make(map[int]tasti.Annotation)
	for _, id := range caching.CachedIDs() {
		ann, err := caching.Label(id) // cache hit, free
		if err != nil {
			log.Fatal(err)
		}
		paid[id] = ann
	}
	index.CrackAll(paid)
	fmt.Printf("cracked %d labels into the index (%d representatives now)\n",
		len(paid), index.RepCount())

	// Second query: the same selection, now on the cracked index.
	fprAfter, err := runSelection(index, ds, hasCar, oracle, seed)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("selection FPR before cracking: %.2f%%, after: %.2f%%\n", fprBefore*100, fprAfter*100)
}

// runSelection executes the recall-target selection and returns its false
// positive rate against ground truth.
func runSelection(index *tasti.ShardedIndex, ds *tasti.Dataset, pred func(tasti.Annotation) bool, oracle tasti.Labeler, seed int64) (float64, error) {
	scores, err := index.Propagate(tasti.MatchScore(pred))
	if err != nil {
		return 0, err
	}
	res, err := tasti.SelectWithRecall(tasti.SelectOptions{
		Budget: 250, Target: 0.9, Delta: 0.05, Seed: seed + 9,
	}, ds.Len(), scores, pred, oracle)
	if err != nil {
		return 0, err
	}
	fp := 0
	for _, id := range res.Returned {
		if !pred(ds.Truth[id]) {
			fp++
		}
	}
	if len(res.Returned) == 0 {
		return 0, nil
	}
	return float64(fp) / float64(len(res.Returned)), nil
}
