package tasti_test

import (
	"bytes"
	"context"
	"errors"
	"testing"

	"repro/tasti"
)

// TestSaveLoadQueryEquivalence is the persistence property test: a served
// two-shard index restored from its snapshot must answer aggregation, SUPG
// selection, and limit queries bitwise-identically to the in-memory original
// — at every worker count, since the repository guarantees parallelism
// never changes results. Any divergence means Save/Load dropped
// or reordered state that queries observe.
func TestSaveLoadQueryEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	ds, err := tasti.GenerateDataset("night-street", 2000, 5)
	if err != nil {
		t.Fatal(err)
	}
	oracle := tasti.NewOracle(ds, "mask-rcnn", tasti.MaskRCNNCost)
	built, err := tasti.Build(tasti.PretrainedConfig(150, 5), ds, oracle)
	if err != nil {
		t.Fatal(err)
	}
	index, err := tasti.SplitIndex(built, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := index.Save(&buf); err != nil {
		t.Fatal(err)
	}
	ref := index.Pin()

	carCount := tasti.CountScore("car")
	hasCar := func(ann tasti.Annotation) bool {
		return ann.(tasti.VideoAnnotation).Count("car") >= 1
	}

	// Reference answers from the in-memory index.
	refScores, err := ref.Propagate(carCount)
	if err != nil {
		t.Fatal(err)
	}
	refAgg, err := tasti.EstimateAggregate(tasti.AggregateOptions{
		ErrTarget: 0.15, Delta: 0.05, MinSamples: 100, Seed: 7,
	}, ds.Len(), refScores, carCount, oracle)
	if err != nil {
		t.Fatal(err)
	}
	refSel, err := tasti.SelectWithRecall(tasti.SelectOptions{
		Budget: 200, Target: 0.9, Delta: 0.05, Seed: 8,
	}, ds.Len(), refScores, hasCar, oracle)
	if err != nil {
		t.Fatal(err)
	}
	refNear, refDist, err := ref.PropagateNearest(carCount, nil)
	if err != nil {
		t.Fatal(err)
	}
	// limit answers the limit query as a server does: one Run, labeling
	// through a fresh label store bound to v's annotations.
	limit := func(v *tasti.IndexVersion) (tasti.LimitResult, error) {
		ans, err := v.Run(context.Background(), tasti.Query{Limit: &tasti.LimitQuery{
			Score: tasti.Scorer{Name: "count/car", Score: carCount}, Pred: hasCar, K: 10,
		}}, tasti.NewLabelStore(tasti.LabelStoreOptions{}).Bind(oracle, nil, "", v.AnnotationOf), nil)
		return ans.Limit, err
	}
	refLim, err := limit(ref)
	if err != nil {
		t.Fatal(err)
	}

	for _, p := range []int{1, 4} {
		served, err := tasti.LoadShardedIndex(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("p=%d: load: %v", p, err)
		}
		served.SetParallelism(p)
		loaded := served.Pin()

		scores, err := loaded.Propagate(carCount)
		if err != nil {
			t.Fatalf("p=%d: propagate: %v", p, err)
		}
		for i, v := range refScores {
			if scores[i] != v {
				t.Fatalf("p=%d: propagated score [%d] = %v, want %v", p, i, scores[i], v)
			}
		}
		agg, err := tasti.EstimateAggregate(tasti.AggregateOptions{
			ErrTarget: 0.15, Delta: 0.05, MinSamples: 100, Seed: 7,
		}, ds.Len(), scores, carCount, oracle)
		if err != nil {
			t.Fatalf("p=%d: aggregate: %v", p, err)
		}
		if agg.Estimate != refAgg.Estimate || agg.HalfWidth != refAgg.HalfWidth || agg.LabelerCalls != refAgg.LabelerCalls {
			t.Fatalf("p=%d: aggregate %+v, want %+v", p, agg, refAgg)
		}
		sel, err := tasti.SelectWithRecall(tasti.SelectOptions{
			Budget: 200, Target: 0.9, Delta: 0.05, Seed: 8,
		}, ds.Len(), scores, hasCar, oracle)
		if err != nil {
			t.Fatalf("p=%d: select: %v", p, err)
		}
		if sel.Threshold != refSel.Threshold || len(sel.Returned) != len(refSel.Returned) {
			t.Fatalf("p=%d: select returned %d at %v, want %d at %v",
				p, len(sel.Returned), sel.Threshold, len(refSel.Returned), refSel.Threshold)
		}
		for i, id := range refSel.Returned {
			if sel.Returned[i] != id {
				t.Fatalf("p=%d: selected [%d] = %d, want %d", p, i, sel.Returned[i], id)
			}
		}
		near, dist, err := loaded.PropagateNearest(carCount, nil)
		if err != nil {
			t.Fatalf("p=%d: propagate-nearest: %v", p, err)
		}
		for i := range refNear {
			if near[i] != refNear[i] || dist[i] != refDist[i] {
				t.Fatalf("p=%d: nearest propagation diverged at record %d", p, i)
			}
		}
		lim, err := limit(loaded)
		if err != nil {
			t.Fatalf("p=%d: limit: %v", p, err)
		}
		if lim.OracleCalls != refLim.OracleCalls || len(lim.Found) != len(refLim.Found) {
			t.Fatalf("p=%d: limit %+v, want %+v", p, lim, refLim)
		}
		for i, id := range refLim.Found {
			if lim.Found[i] != id {
				t.Fatalf("p=%d: limit found [%d] = %d, want %d", p, i, lim.Found[i], id)
			}
		}
	}
}

// TestSnapshotErrorTaxonomyExported pins the public corruption contract: a
// truncated snapshot surfaces a typed error reachable through the facade's
// exported sentinels.
func TestSnapshotErrorTaxonomyExported(t *testing.T) {
	ds, err := tasti.GenerateDataset("night-street", 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	built, err := tasti.Build(tasti.PretrainedConfig(20, 1), ds, tasti.NewOracle(ds, "o", tasti.MaskRCNNCost))
	if err != nil {
		t.Fatal(err)
	}
	index, err := tasti.SplitIndex(built, 1)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := index.Save(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	if _, err := tasti.LoadShardedIndex(bytes.NewReader(data[:len(data)-3])); err == nil {
		t.Fatal("truncated snapshot loaded")
	} else if !errors.Is(err, tasti.ErrSnapshotChecksum) && !errors.Is(err, tasti.ErrSnapshotTruncated) {
		t.Fatalf("truncated snapshot error %v is not in the exported taxonomy", err)
	}

	var labels bytes.Buffer
	if err := tasti.NewLabelStore(tasti.LabelStoreOptions{}).Save(&labels); err != nil {
		t.Fatal(err)
	}
	if _, err := tasti.LoadShardedIndex(bytes.NewReader(labels.Bytes())); !errors.Is(err, tasti.ErrSnapshotKind) {
		t.Fatalf("label-store-as-index error = %v, want ErrSnapshotKind", err)
	}
}
