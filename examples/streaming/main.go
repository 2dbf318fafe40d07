// Streaming demonstrates live ingestion: a TASTI index is built over the
// first half of a video stream and served as a one-shard ShardedIndex, new
// frames arrive and are appended with ShardedIndex.AppendRecords (embedding +
// neighbor lists only — no new labels), and queries over the grown corpus
// keep working. The appended half's proxy quality is compared against a full
// rebuild.
package main

import (
	"fmt"
	"log"
	"math"

	"repro/tasti"
)

func main() {
	const (
		total = 12000
		half  = total / 2
		seed  = 17
	)
	// The full stream, generated up front; the second half plays the role
	// of frames that arrive after the index was built.
	full, err := tasti.GenerateDataset("night-street", total, seed)
	if err != nil {
		log.Fatal(err)
	}
	oracle := tasti.NewOracle(full, "mask-rcnn", tasti.MaskRCNNCost)

	// Build over the first half only.
	first := &tasti.Dataset{
		Name:    full.Name,
		Records: full.Records[:half],
		Truth:   full.Truth[:half],
	}
	firstOracle := tasti.NewOracle(first, "mask-rcnn", tasti.MaskRCNNCost)
	built, err := tasti.Build(tasti.DefaultConfig(500, 700, tasti.VideoBucketKey(0.5), seed), first, firstOracle)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("built index over first %d frames (%d label calls)\n",
		half, built.Stats.TotalLabelCalls())
	index, err := tasti.SplitIndex(built, 1)
	if err != nil {
		log.Fatal(err)
	}

	// Stream in the second half, a batch at a time.
	const batch = 1000
	for start := half; start < total; start += batch {
		features := make([][]float64, 0, batch)
		for i := start; i < start+batch && i < total; i++ {
			features = append(features, full.Records[i].Features)
		}
		if _, err := index.AppendRecords(features); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("appended %d streamed frames (no labels spent); index now covers %d records\n",
		total-half, index.NumRecords())

	// Quality check: proxy-score correlation on the streamed half versus
	// ground truth, compared against an index rebuilt over everything.
	carCount := tasti.CountScore("car")
	scores, err := index.Propagate(carCount)
	if err != nil {
		log.Fatal(err)
	}
	rebuilt, err := tasti.Build(tasti.DefaultConfig(500, 700, tasti.VideoBucketKey(0.5), seed), full, oracle)
	if err != nil {
		log.Fatal(err)
	}
	rebuiltScores, err := rebuilt.Propagate(carCount)
	if err != nil {
		log.Fatal(err)
	}

	truth := make([]float64, total)
	for i, ann := range full.Truth {
		truth[i] = carCount(ann)
	}
	fmt.Printf("streamed-half rho^2: appended index %.3f vs full rebuild %.3f\n",
		rho2(scores[half:], truth[half:]), rho2(rebuiltScores[half:], truth[half:]))
	fmt.Printf("rebuild spent %d fresh label calls; appending spent none\n",
		rebuilt.Stats.TotalLabelCalls())
}

// rho2 is the squared Pearson correlation.
func rho2(a, b []float64) float64 {
	n := float64(len(a))
	var sa, sb, saa, sbb, sab float64
	for i := range a {
		sa += a[i]
		sb += b[i]
		saa += a[i] * a[i]
		sbb += b[i] * b[i]
		sab += a[i] * b[i]
	}
	cov := sab/n - sa/n*sb/n
	va := saa/n - sa/n*sa/n
	vb := sbb/n - sb/n*sb/n
	if va == 0 || vb == 0 {
		return 0
	}
	r := cov / math.Sqrt(va*vb)
	return r * r
}
