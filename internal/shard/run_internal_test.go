package shard

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/aggregation"
	"repro/internal/telemetry"
)

// TestCanceledQueryStopsDrawingValues: a query whose every draw is answered
// from the column's exact scores never reaches a labeler, a store or anything
// else that looks at its context — so the value source checks it on each such
// draw, and a canceled query stops at its next one instead of sampling on to
// its error target. (The store-level twin is TestCanceledQueryStopsDrawingHits
// in internal/labeler/store.)
func TestCanceledQueryStopsDrawingValues(t *testing.T) {
	const cancelAt = 150
	ds, err := dataset.Generate("taipei", 800, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := core.Build(core.PretrainedConfig(100, 1), ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	x, err := Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	v := x.Pin()
	score := Scorer{Name: "count/car", Score: core.CountScore("car")}
	col, _, err := v.Column(score, ColumnWeighted, nil)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	labels := store.New(store.Options{Telemetry: reg})
	for id := range col.Scores {
		labels.Put(id, ds.Truth[id])
		col.setValue(id, score.Score(ds.Truth[id]))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := &request{ctx: ctx, done: ctx.Done(), labels: labels.Bind(oracle, nil, "", v.AnnotationOf)}
	source, drawn := r.values(col, score.Score), 0
	// An error target this tight needs every record; the sampler is nowhere
	// near done at draw 150.
	_, err = aggregation.EstimateValues(aggregation.Options{ErrTarget: 1e-9, Delta: 0.05, MinSamples: 100, Seed: 5},
		v.NumRecords(), col.Scores, col.Mean, func(id int) (float64, error) {
			v, err := source(id)
			if drawn++; drawn == cancelAt {
				cancel()
			}
			return v, err
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("estimate over a canceled context returned %v, want context.Canceled", err)
	}
	// The context was canceled as draw cancelAt returned; the very next draw
	// is refused, and the draws answered are booked as the store hits they
	// stand for.
	if drawn != cancelAt+1 {
		t.Fatalf("%d draws, want the sampler stopped at draw %d", drawn, cancelAt+1)
	}
	if r.hits != cancelAt || r.misses != 0 {
		t.Errorf("%d hits and %d misses booked for %d draws answered from exact scores", r.hits, r.misses, cancelAt)
	}
	if misses := reg.Counter("tasti_labelstore_misses_total").Value(); misses != 0 {
		t.Errorf("%d labels bought by a query whose every draw was a known value", misses)
	}
}
