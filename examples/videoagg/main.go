// Videoagg reproduces the paper's motivating comparison on one dataset:
// answering an aggregation query with (a) uniform sampling, (b) a per-query
// proxy model trained for this one query, and (c) a TASTI index that needed
// no per-query training — showing the invocation counts side by side, plus
// how the same index immediately serves a second, different query.
package main

import (
	"fmt"
	"log"

	"repro/internal/proxy"
	"repro/internal/xrand"
	"repro/tasti"
)

const (
	frames = 10000
	seed   = 11
)

func main() {
	ds, err := tasti.GenerateDataset("taipei", frames, seed)
	if err != nil {
		log.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)
	carCount := tasti.CountScore("car")

	opts := tasti.AggregateOptions{ErrTarget: 0.08, Delta: 0.05, MinSamples: 100, Seed: seed + 1}
	estimate := func(name string, scores []float64) int64 {
		counting := tasti.NewCountingLabeler(oracle)
		res, err := tasti.EstimateAggregate(opts, ds.Len(), scores, carCount, counting)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-18s %6d target calls  estimate %.3f\n", name, res.LabelerCalls, res.Estimate)
		return res.LabelerCalls
	}

	// (a) No proxy: plain uniform sampling with the EBS stopping rule.
	estimate("uniform sampling", nil)

	// (b) Per-query proxy: label a random TMAS, train a small regression
	// model for this one query, use its predictions as the control variate.
	// The 2,000 TMAS labels are extra, unshareable cost.
	r := xrand.New(seed + 2)
	tmas := xrand.SampleWithoutReplacement(r, ds.Len(), 2000)
	targets := make([]float64, len(tmas))
	for i, id := range tmas {
		ann, err := oracle.Label(id)
		if err != nil {
			log.Fatal(err)
		}
		targets[i] = carCount(ann)
	}
	// The proxy mirrors the paper's "tiny ResNet": a deliberately small
	// model, cheap enough to run over every record.
	proxyCfg := proxy.DefaultConfig(proxy.Regression, seed+3)
	proxyCfg.Hidden = 16
	proxyCfg.Epochs = 20
	model, err := proxy.Train(proxyCfg, ds, tmas, targets, 0)
	if err != nil {
		log.Fatal(err)
	}
	proxyCarCalls := estimate("per-query proxy", model.Scores(ds))

	// (c) TASTI: build the index once (1,300 labels), reuse it for every
	// query over this video.
	index, err := tasti.Build(tasti.DefaultConfig(600, 1200, tasti.VideoBucketKey(0.5), seed+4), ds, oracle)
	if err != nil {
		log.Fatal(err)
	}
	carScores, err := index.Propagate(carCount)
	if err != nil {
		log.Fatal(err)
	}
	tastiCarCalls := estimate("TASTI", carScores)
	fmt.Printf("TASTI index construction: %d target calls, shared across queries\n\n",
		index.Stats.TotalLabelCalls())

	// The same index answers a different query — buses instead of cars —
	// with no new training. A per-query proxy system would train another
	// model (and label another TMAS) here.
	busCount := tasti.CountScore("bus")
	busScores, err := index.Propagate(busCount)
	if err != nil {
		log.Fatal(err)
	}
	counting := tasti.NewCountingLabeler(oracle)
	busOpts := opts
	busOpts.ErrTarget = 0.04 // buses are rarer, so the count scale is smaller
	res, err := tasti.EstimateAggregate(busOpts, ds.Len(), busScores, busCount, counting)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("same index, new query (avg buses/frame): %.3f in %d target calls\n\n",
		res.Estimate, res.LabelerCalls)

	// The two-query bottom line: the per-query system pays a fresh TMAS per
	// query; TASTI's construction cost is shared.
	fmt.Println("two-query total (construction + queries):")
	// The proxy system would need a second TMAS and proxy for the bus
	// query; charitably assume its bus query then costs the same as
	// TASTI's.
	fmt.Printf("  per-query proxies: %d target calls (2 TMAS of %d + queries)\n",
		2*int64(len(tmas))+proxyCarCalls+res.LabelerCalls, len(tmas))
	fmt.Printf("  TASTI:             %d target calls (one index + queries)\n",
		index.Stats.TotalLabelCalls()+tastiCarCalls+res.LabelerCalls)
}
