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
	"repro/internal/xrand"
)

// TestCanceledQueryStopsDrawingValues: a query whose every draw is answered
// from the column's exact scores never reaches a labeler, a store or anything
// else that looks at its context — so the value source checks it on each such
// draw, and a canceled query stops at its next one instead of sampling on to
// its error target. The draws are peeked a block ahead, so the cancellation
// also falls on the last draw of a block and of the block after it. (The
// store-level twin is TestCanceledQueryStopsDrawingHits in
// internal/labeler/store.)
func TestCanceledQueryStopsDrawingValues(t *testing.T) {
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
	col, _, err := v.Column(score, ColumnWeighted)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	labels := store.New(store.Options{Telemetry: reg})
	for id := range col.Scores {
		labels.Put(id, ds.Truth[id])
		col.setValue(id, score.Score(ds.Truth[id]))
	}
	for _, cancelAt := range []int{150, xrand.Block, 2 * xrand.Block} {
		ctx, cancel := context.WithCancel(context.Background())
		r := &request{ctx: ctx, done: ctx.Done(), labels: labels.Bind(oracle, nil, "", v.AnnotationOf)}
		source := &cancelAfter{values: values{r: r, col: col, score: score.Score}, at: cancelAt, cancel: cancel}
		// An error target this tight needs every record; the sampler is
		// nowhere near done at any cancelAt.
		_, err = aggregation.EstimateValues(aggregation.Options{ErrTarget: 1e-9, Delta: 0.05, MinSamples: 100, Seed: 5},
			v.NumRecords(), col.Scores, col.Mean, source)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelAt=%d: estimate over a canceled context returned %v, want context.Canceled", cancelAt, err)
		}
		// The context was canceled as draw cancelAt returned; the very next
		// draw is refused, and the draws answered are booked as the store
		// hits they stand for.
		if source.drawn != cancelAt+1 {
			t.Fatalf("cancelAt=%d: %d draws, want the sampler stopped at draw %d", cancelAt, source.drawn, cancelAt+1)
		}
		if r.hits != int64(cancelAt) || r.misses != 0 {
			t.Errorf("cancelAt=%d: %d hits and %d misses booked for %d draws answered from exact scores", cancelAt, r.hits, r.misses, cancelAt)
		}
	}
	if misses := reg.Counter("tasti_labelstore_misses_total").Value(); misses != 0 {
		t.Errorf("%d labels bought by a query whose every draw was a known value", misses)
	}
}

// cancelAfter is a request's value source that counts the draws it consumes
// and cancels the request as draw at returns.
type cancelAfter struct {
	values
	drawn, at int
	cancel    func()
}

func (c *cancelAfter) Value(id int, v float64, known bool) (float64, error) {
	v, err := c.values.Value(id, v, known)
	if c.drawn++; c.drawn == c.at {
		c.cancel()
	}
	return v, err
}
