package shard_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// runCases are one query of each type — a limit that cracks, and one whose
// scan runs out — over night-street.
func runCases() map[string]shard.Query {
	cars := func(n int) func(dataset.Annotation) bool {
		return func(ann dataset.Annotation) bool { return ann.(dataset.VideoAnnotation).Count("car") >= n }
	}
	count := shard.Scorer{Name: "run/count/car", Score: core.CountScore("car")}
	return map[string]shard.Query{
		"aggregate": {Aggregate: &shard.Aggregate{Score: count, ErrTarget: 0.15, Seed: 2}},
		"select":    {Select: &shard.Select{Match: shard.Scorer{Name: "match/car/1", Score: core.MatchScore(cars(1))}, Budget: 150, Recall: 0.9, Seed: 3}},
		"limit":     {Limit: &shard.Limit{Score: count, Pred: cars(1), K: 20, Crack: true}},
		"exhausted": {Limit: &shard.Limit{Score: count, Pred: cars(40), K: 1, Crack: true}},
	}
}

// propagator is what referenceKey propagates over: a served version, or the
// reference model.
type propagator interface {
	NumRecords() int
	Propagate(core.ScoreFunc) ([]float64, error)
	PropagateNearest(core.ScoreFunc) (scores, dists []float64, err error)
}

// referenceKey answers q the way everything without a proxy column does —
// the scores-in estimator over an uncached propagation of v, labeling
// through lab — and renders the answer as answerKey does.
func referenceKey(t *testing.T, v propagator, q shard.Query, lab labeler.Labeler) string {
	t.Helper()
	var ans shard.Answer
	var selected []int
	var err error
	switch {
	case q.Aggregate != nil:
		a := q.Aggregate
		proxy, perr := v.Propagate(a.Score.Score)
		if perr != nil {
			t.Fatal(perr)
		}
		ans.Aggregate, err = aggregation.Estimate(aggregation.Options{ErrTarget: a.ErrTarget, Delta: 0.05, MinSamples: 100, Seed: a.Seed},
			v.NumRecords(), proxy, aggregation.ScoreFunc(a.Score.Score), lab)
	case q.Select != nil:
		s := q.Select
		proxy, perr := v.Propagate(s.Match.Score)
		if perr != nil {
			t.Fatal(perr)
		}
		var res supg.Result
		res, err = supg.RecallTarget(supg.Options{Budget: s.Budget, Target: s.Recall, Delta: 0.05, Seed: s.Seed},
			v.NumRecords(), proxy, func(ann dataset.Annotation) bool { return s.Match.Score(ann) != 0 }, lab)
		ans.Returned, selected = len(res.Returned), res.Returned
		ans.Selection.OracleCalls, ans.Selection.Threshold, ans.Selection.Degraded = res.OracleCalls, res.Threshold, res.Degraded
	default:
		l := q.Limit
		scores, dists, perr := v.PropagateNearest(l.Score.Score)
		if perr != nil {
			t.Fatal(perr)
		}
		ans.Limit, err = limitq.Run(l.K, scores, dists, l.Pred, lab)
		ans.Crack = ans.Limit.Labeled
		if ans.Limit.Exhausted {
			ans.Crack = map[int]dataset.Annotation{}
			for _, id := range ans.Limit.Found {
				ans.Crack[id] = ans.Limit.Labeled[id]
			}
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	return answerKey(ans, selected)
}

// answerKey renders an answer's results, value bits included, for equality:
// for a select, its members too.
func answerKey(ans shard.Answer, selected []int) string {
	a, sel, l := ans.Aggregate, ans.Selection, ans.Limit
	return fmt.Sprintf("agg %x %x %x %d %t | sel %d %v %x %d %t | lim %v %d %t %t %v | crack %v",
		math.Float64bits(a.Estimate), math.Float64bits(a.HalfWidth), math.Float64bits(a.ControlVariateCoeff), a.LabelerCalls, a.Degraded,
		ans.Returned, selected, math.Float64bits(sel.Threshold), sel.OracleCalls, sel.Degraded,
		l.Found, l.OracleCalls, l.Exhausted, l.Degraded, sortedKeys(l.Labeled),
		sortedKeys(ans.Crack))
}

// sortedKeys lists a label map's records in ascending order.
func sortedKeys(m map[int]dataset.Annotation) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	return ids
}

// labelCalls is the number of successful label calls a query's answer
// reports.
func labelCalls(q shard.Query, ans shard.Answer) int64 {
	switch {
	case q.Aggregate != nil:
		return ans.Aggregate.LabelerCalls
	case q.Select != nil:
		return ans.Selection.OracleCalls
	}
	return ans.Limit.OracleCalls
}

// TestRunMatchesScoresInEstimators: Run's answer to each query type is
// bitwise the scores-in estimator's over an uncached propagation with the
// same labels — at parallelism 1 and 2, whether the proxy column is built by
// the query or read from the store, and whether the label store holds
// nothing yet or every label the query needs. Hits and misses
// add up to the label calls, and a store holding every label buys none.
func TestRunMatchesScoresInEstimators(t *testing.T) {
	const n, reps = 600, 60
	ix, ds := buildIndex(t, n, reps)
	ref, err := shard.Split(ix, 1)
	if err != nil {
		t.Fatal(err)
	}
	oracle := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	want := map[string]string{}
	for name, q := range runCases() {
		want[name] = referenceKey(t, ref.Pin(), q, oracle)
	}
	truth := map[int]dataset.Annotation{}
	for id, ann := range ds.Truth {
		truth[id] = ann
	}

	for _, par := range []int{1, 2} {
		// Index a takes the cold store first, index b the warm one, so
		// each store state meets a cold and a warm column.
		for _, order := range [][]bool{{false, true}, {true, false}} {
			built, _ := buildIndex(t, n, reps)
			x, err := shard.Split(built, 1)
			if err != nil {
				t.Fatal(err)
			}
			x.SetParallelism(par)
			warm := store.New(store.Options{})
			warm.Warm(truth)
			for pass, warmStore := range order {
				for name, q := range runCases() {
					st := store.New(store.Options{})
					if warmStore {
						st = warm
					}
					v := x.Pin()
					reg := telemetry.NewRegistry()
					st.SetTelemetry(reg)
					ans, err := v.Run(context.Background(), q, st.Bind(oracle, nil, "", v.AnnotationOf), nil)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					var selected []int
					if q.Select != nil {
						selected = ans.Selection.IDs(n)
					}
					at := fmt.Sprintf("%s at parallelism %d, pass %d, warm store %t", name, par, pass, warmStore)
					if got := answerKey(ans, selected); got != want[name] {
						t.Errorf("%s:\n got  %s\n want %s", at, got, want[name])
					}
					if ans.Records != n {
						t.Errorf("%s: read %d records", at, ans.Records)
					}
					if calls := labelCalls(q, ans); ans.Hits+ans.Misses != calls {
						t.Errorf("%s: %d hits + %d misses, %d label calls", at, ans.Hits, ans.Misses, calls)
					}
					if bought := reg.Counter("tasti_labelstore_misses_total").Value(); bought != ans.Misses || (warmStore && bought != 0) {
						t.Errorf("%s: the store bought %d labels, the answer books %d misses", at, bought, ans.Misses)
					}
				}
			}
		}
	}
}

// cancelAfter is a labeler that cancels its request's context once it has
// answered n calls.
type cancelAfter struct {
	labeler.Labeler
	n      int
	cancel context.CancelFunc
}

func (c *cancelAfter) Label(id int) (dataset.Annotation, error) {
	ann, err := c.Labeler.Label(id)
	if c.n--; c.n == 0 {
		c.cancel()
	}
	return ann, err
}

// TestRunCanceledBooksItsLabels: a query whose context is canceled mid-query
// fails with context.Canceled at its next draw, and its answer still books
// every label it got — hits plus misses equal the label calls its estimator
// counted — and the records it read.
func TestRunCanceledBooksItsLabels(t *testing.T) {
	const n, bought = 600, 40
	ix, ds := buildIndex(t, n, 60)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	x.SetTelemetry(reg)
	for name, q := range runCases() {
		if name == "limit" {
			continue // twenty matches come before forty labels
		}
		v := x.Pin()
		ctx, cancel := context.WithCancel(context.Background())
		oracle := &cancelAfter{Labeler: labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost), n: bought, cancel: cancel}
		kind := "limit"
		switch {
		case q.Aggregate != nil:
			kind = "aggregate"
		case q.Select != nil:
			kind = "select"
		}
		calls := reg.Counter(fmt.Sprintf(`tasti_query_label_calls_total{type=%q}`, kind))
		before := calls.Value()
		ans, err := v.Run(ctx, q, store.New(store.Options{}).Bind(oracle, nil, "", v.AnnotationOf), nil)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: canceled after %d labels bought: %v", name, bought, err)
		}
		if got := calls.Value() - before; ans.Hits+ans.Misses != got || ans.Misses != bought {
			t.Errorf("%s: %d hits + %d misses booked, %d label calls counted, %d bought", name, ans.Hits, ans.Misses, got, bought)
		}
		if ans.Records != n {
			t.Errorf("%s: read %d records", name, ans.Records)
		}
	}
	if _, err := x.Pin().Run(context.Background(), shard.Query{}, nil, nil); err == nil {
		t.Error("a query with no type ran")
	}
}
