package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/limitq"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// buildIndex builds a deterministic TASTI-PT index. Build is seed-driven, so
// repeated calls with the same arguments produce bitwise-identical indexes —
// the property the invariance tests lean on, since Split takes ownership of
// its argument and comparisons therefore need a fresh twin.
func buildIndex(t *testing.T, n, reps int) (*core.Index, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := core.Build(core.PretrainedConfig(reps, 2), ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

// sameBits fails unless got and want are float64-bitwise identical — the
// determinism contract is exact bits, not approximate values.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// sameNeighbors fails unless two neighbor rows name the same representatives
// at float64-bitwise identical distances.
func sameNeighbors(t *testing.T, name string, got, want []cluster.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", name, len(got), len(want))
	}
	for j := range want {
		if got[j].Rep != want[j].Rep || math.Float64bits(got[j].Dist) != math.Float64bits(want[j].Dist) {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", name, j, got[j], want[j])
		}
	}
}

func sameInts(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestPersistRoundTrip: Save then Load restores the view count, the build
// stats and every bit the model holds.
func TestPersistRoundTrip(t *testing.T) {
	x, m, _ := modelIndex(t, 300, 30, 3)
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := loaded.Pin().Stats.TotalLabelCalls(), x.Pin().Stats.TotalLabelCalls(); got != want {
		t.Errorf("loaded stats report %d label calls, want %d", got, want)
	}
	matchesModel(t, "loaded", loaded.Pin(), m, rand.New(rand.NewSource(1)))
}

// TestSnapshotKindMismatch pins the typed-error contract: an index snapshot
// and a label-store snapshot each reject the other's loader with
// snapshot.ErrKind, never a decode mystery.
func TestSnapshotKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := store.New(store.Options{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrKind) {
		t.Errorf("shard.Load of a label store: %v, want ErrKind", err)
	}

	ix, _ := buildIndex(t, 200, 20)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(bytes.NewReader(buf.Bytes()), store.Options{}); !errors.Is(err, snapshot.ErrKind) {
		t.Errorf("store.Load of a sharded snapshot: %v, want ErrKind", err)
	}
}

// TestValidation covers the argument guards: illegal view counts at Split,
// illegal neighbor counts at PropagateK, and a missing representative
// annotation surfacing as core.ErrNoAnnotation.
func TestValidation(t *testing.T) {
	ix, _ := buildIndex(t, 100, 10)
	if _, err := shard.Split(ix, 0); err == nil {
		t.Error("Split accepted 0 shards")
	}
	if _, err := shard.Split(ix, 101); err == nil {
		t.Error("Split accepted more shards than records")
	}
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	score := core.CountScore("car")
	if _, err := x.Pin().PropagateK(score, 0); err == nil {
		t.Error("PropagateK accepted k=0")
	}
	if _, err := x.Pin().PropagateK(score, x.K()+1); err == nil {
		t.Errorf("PropagateK accepted k=%d > K=%d", x.K()+1, x.K())
	}

	sh := x.Shard(1)
	delete(sh.Annotations, sh.Table.Reps[0])
	if _, err := x.Propagate(score); !errors.Is(err, core.ErrNoAnnotation) {
		t.Errorf("Propagate with a missing annotation: %v, want ErrNoAnnotation", err)
	}
}

// TestIndexTelemetry: a proxy-column miss counts one request of its kind and
// one propagation latency, a hit counts only the request, an uncached
// propagation counts nothing, and the index publishes its representative
// count, under the documented names.
func TestIndexTelemetry(t *testing.T) {
	ix, _ := buildIndex(t, 200, 20)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	x.SetTelemetry(reg)
	if _, err := x.Propagate(core.CountScore("car")); err != nil {
		t.Fatal(err)
	}
	count := shard.Scorer{Name: "count/car", Score: core.CountScore("car")}
	for i := 0; i < 2; i++ {
		if _, _, err := x.Column(count, shard.ColumnNearest); err != nil {
			t.Fatal(err)
		}
	}
	if got := reg.Gauge("tasti_index_reps").Value(); got != 20 {
		t.Errorf("index reps gauge = %v, want 20", got)
	}
	for series, want := range map[string]int64{
		`tasti_proxy_column_requests_total{result="miss",kind="nearest"}`:  1,
		`tasti_proxy_column_requests_total{result="hit",kind="nearest"}`:   1,
		`tasti_proxy_column_requests_total{result="miss",kind="weighted"}`: 0,
	} {
		if got := reg.Counter(series).Value(); got != want {
			t.Errorf("%s = %d, want %d", series, got, want)
		}
	}
	if got := reg.Histogram("tasti_propagate_seconds", nil).Count(); got != 1 {
		t.Errorf("tasti_propagate_seconds count = %d, want one per column miss", got)
	}
}

// TestHealthStats: the radius quantiles are finite, non-negative and
// monotone.
func TestHealthStats(t *testing.T) {
	ix, _ := buildIndex(t, 400, 50)
	x, err := shard.Split(ix, 4)
	if err != nil {
		t.Fatal(err)
	}
	qs := x.Pin().RadiusQuantiles([]float64{0.5, 0.9, 0.99})
	for i := range qs {
		if math.IsNaN(qs[i]) || qs[i] < 0 {
			t.Fatalf("radius quantile %d = %v", i, qs[i])
		}
		if i > 0 && qs[i] < qs[i-1] {
			t.Errorf("radius quantiles not monotone: %v", qs)
		}
	}
}

// TestLimitCursorMatchesOrder: LimitCursor and LimitOrder yield
// limitq.Order's permutation bit for bit at workers {1, 2, 3, 7} × views
// {1, 2, 5}, over indexes of 1, 2 and 300 records — where workers outnumber
// records, the cut gives some workers no range — with and without tie
// distances, under heavy ties.
func TestLimitCursorMatchesOrder(t *testing.T) {
	for _, n := range []int{1, 2, 300} {
		proxy, dists := make([]float64, n), make([]float64, n)
		for i := range proxy {
			proxy[i], dists[i] = float64(i*7919%3), float64(i*104729%2)/2
		}
		for _, views := range []int{1, 2, 5} {
			if views > n {
				continue
			}
			emb := vecmath.NewMatrix(n, 4)
			for i := range emb.Data() {
				emb.Data()[i] = float64(i * 31 % 17)
			}
			x, err := shard.Split(&core.Index{Embeddings: emb, Table: cluster.BuildTablePar(emb, []int{0}, 1, 1),
				Annotations: map[int]dataset.Annotation{0: dataset.VideoAnnotation{}}}, views)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{1, 2, 3, 7} {
				x.SetParallelism(workers)
				for _, ties := range [][]float64{dists, nil} {
					at := fmt.Sprintf("n=%d views=%d workers=%d ties=%v", n, views, workers, ties != nil)
					want := limitq.Order(proxy, ties)
					sameInts(t, at+" LimitOrder", x.LimitOrder(proxy, ties), want)
					cur := x.Pin().LimitCursor(proxy, ties)
					first, _ := cur.Next()
					sameInts(t, at+" LimitCursor", append([]int{first}, cur.Drain()...), want)
				}
			}
		}
	}
}
