package supg

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/metrics"
	"repro/internal/xrand"
)

func selectionEnv(t testing.TB, n int) (*dataset.Dataset, labeler.Labeler, Predicate, []bool) {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	pred := func(ann dataset.Annotation) bool {
		return ann.(dataset.VideoAnnotation).Count("car") >= 1
	}
	truth := make([]bool, n)
	for i, ann := range ds.Truth {
		truth[i] = pred(ann)
	}
	return ds, lab, pred, truth
}

// goodProxy builds proxy scores correlated with the predicate: the truth
// plus noise.
func goodProxy(truth []bool, noise float64, seed int64) []float64 {
	r := xrand.New(seed)
	out := make([]float64, len(truth))
	for i, m := range truth {
		v := 0.1
		if m {
			v = 0.9
		}
		out[i] = math.Max(0, math.Min(1, v+xrand.Normal(r, 0, noise)))
	}
	return out
}

func TestRecallTargetMeetsRecall(t *testing.T) {
	ds, lab, pred, truth := selectionEnv(t, 3000)
	scores := goodProxy(truth, 0.15, 2)

	misses := 0
	const trials = 30
	for trial := 0; trial < trials; trial++ {
		opts := Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: int64(trial)}
		res, err := RecallTarget(opts, ds.Len(), scores, pred, lab)
		if err != nil {
			t.Fatal(err)
		}
		c := metrics.NewConfusion(truth, res.Returned)
		if c.Recall() < 0.9 {
			misses++
		}
		if res.OracleCalls != 150 {
			t.Fatalf("oracle calls = %d, want budget 150", res.OracleCalls)
		}
	}
	if float64(misses)/trials > 0.1 {
		t.Errorf("recall target missed in %d/%d trials", misses, trials)
	}
}

func TestBetterProxyLowersFPR(t *testing.T) {
	ds, lab, pred, truth := selectionEnv(t, 3000)
	sharp := goodProxy(truth, 0.05, 3)
	blurry := goodProxy(truth, 0.45, 3)
	opts := Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: 4}

	resSharp, err := RecallTarget(opts, ds.Len(), sharp, pred, lab)
	if err != nil {
		t.Fatal(err)
	}
	resBlurry, err := RecallTarget(opts, ds.Len(), blurry, pred, lab)
	if err != nil {
		t.Fatal(err)
	}
	fprSharp := metrics.NewConfusion(truth, resSharp.Returned).FalsePositiveRate()
	fprBlurry := metrics.NewConfusion(truth, resBlurry.Returned).FalsePositiveRate()
	if fprSharp >= fprBlurry {
		t.Errorf("sharp proxy FPR %v not below blurry %v", fprSharp, fprBlurry)
	}
}

// TestSampledNegativesExcluded: a record below the threshold is returned
// only as a sampled positive, and a sampled negative never is, so no
// returned record below the threshold is a non-match.
func TestSampledNegativesExcluded(t *testing.T) {
	ds, lab, pred, truth := selectionEnv(t, 1500)
	scores := goodProxy(truth, 0.3, 6)
	res, err := RecallTarget(Options{Budget: 300, Target: 0.9, Delta: 0.05, Seed: 7}, ds.Len(), scores, pred, lab)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range res.Returned {
		if scores[id] < res.Threshold && !truth[id] {
			t.Fatalf("returned sub-threshold non-match %d", id)
		}
	}
}

func TestValidation(t *testing.T) {
	ds, lab, pred, truth := selectionEnv(t, 100)
	scores := goodProxy(truth, 0.1, 8)
	cases := []Options{
		{Budget: 0, Target: 0.9, Delta: 0.05},
		{Budget: 10, Target: 0, Delta: 0.05},
		{Budget: 10, Target: 1, Delta: 0.05},
		{Budget: 10, Target: 0.9, Delta: 0},
	}
	for i, opts := range cases {
		if _, err := RecallTarget(opts, ds.Len(), scores, pred, lab); err == nil {
			t.Errorf("case %d should error", i)
		}
	}
	good := Options{Budget: 10, Target: 0.9, Delta: 0.05}
	if _, err := RecallTarget(good, 0, nil, pred, lab); err == nil {
		t.Error("empty dataset should error")
	}
	if _, err := RecallTarget(good, ds.Len(), scores[:5], pred, lab); err == nil {
		t.Error("score length mismatch should error")
	}
}

func TestBudgetLargerThanDataset(t *testing.T) {
	ds, lab, pred, truth := selectionEnv(t, 50)
	scores := goodProxy(truth, 0.1, 9)
	opts := Options{Budget: 500, Target: 0.9, Delta: 0.05, Seed: 10}
	res, err := RecallTarget(opts, ds.Len(), scores, pred, lab)
	if err != nil {
		t.Fatal(err)
	}
	if res.OracleCalls > int64(ds.Len()) {
		t.Errorf("oracle calls %d exceed dataset size", res.OracleCalls)
	}
}

func TestNormalQuantile(t *testing.T) {
	cases := map[float64]float64{
		0.5:    0,
		0.975:  1.959964,
		0.95:   1.644854,
		0.025:  -1.959964,
		0.0001: -3.719016,
	}
	for p, want := range cases {
		if got := normalQuantile(p); math.Abs(got-want) > 1e-4 {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
}

func TestNormalQuantilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	normalQuantile(0)
}

// TestBudgetExhaustionDegradesSelection exhausts the label budget partway
// through the SUPG sample and requires a graceful partial answer, through
// every entry as the reference gives it: the draws already bought are
// reweighted over the actual draw count and the result is flagged Degraded
// instead of failing.
func TestBudgetExhaustionDegradesSelection(t *testing.T) {
	_, _, _, truth := selectionEnv(t, 2000)
	res, err := refCase{"exhausted", NewDesign(goodProxy(truth, 0.15, 4)),
		Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: 4}, truth, 40, 0, nil}.run(t)
	if err != nil {
		t.Fatalf("exhaustion mid-sample should degrade, not fail: %v", err)
	}
	if !res.degraded || len(res.drawn) != 40 || len(res.set) == 0 {
		t.Errorf("degraded %v after %d draws, %d returned; want degraded after the full budget of 40", res.degraded, len(res.drawn), len(res.set))
	}
}

// TestBudgetExhaustionBeforeAnyDrawFails keeps a zero budget a hard error:
// with no draws there is no sample to estimate a threshold from.
func TestBudgetExhaustionBeforeAnyDrawFails(t *testing.T) {
	ds, _, pred, truth := selectionEnv(t, 500)
	scores := goodProxy(truth, 0.15, 4)
	budgeted := labeler.NewBudgeted(labeler.NewOracle(ds, "o", labeler.MaskRCNNCost), 0)
	opts := Options{Budget: 50, Target: 0.9, Delta: 0.05, Seed: 4}
	if _, err := RecallTarget(opts, ds.Len(), scores, pred, budgeted); err == nil {
		t.Error("zero-budget selection should fail outright")
	}
}

// TestBudgetAmpleIsBitwiseIdentical runs the same selection with and without
// a never-exhausted budget wrapper and requires bit-identical results — the
// post-loop reweighting must reproduce the original weights exactly when the
// sample completes.
func TestBudgetAmpleIsBitwiseIdentical(t *testing.T) {
	_, _, _, truth := selectionEnv(t, 2000)
	c := refCase{"plain", NewDesign(goodProxy(truth, 0.15, 6)), Options{Budget: 120, Target: 0.9, Delta: 0.05, Seed: 6}, truth, 0, 0, nil}
	plain, err := c.run(t)
	if err != nil {
		t.Fatal(err)
	}
	c.name, c.labels = "ample", 1<<30
	if ample, err := c.run(t); err != nil || !reflect.DeepEqual(ample, plain) {
		t.Errorf("ample budget changed the result (%v):\n got %+v\nwant %+v", err, ample, plain)
	}
}

// TestSuccessorMatchesNewDesign derives designs down a chain of writes — each
// rewriting a few scores, some to -0 or values already present, and
// appending a few — and requires each to weigh, draw and count bit for bit
// as NewDesign over the same scores does: the same total, probabilities and
// prefix sums, the same draws, and the same sorted copy up to the order of
// values cmp.Compare calls equal. Every other link of the chain has its
// sorted copy built, so both the merge and a fresh sort are exercised. Last,
// a NaN score before the first changed index, which the total folds and the
// prefix sums skip.
func TestSuccessorMatchesNewDesign(t *testing.T) {
	same := func(step string, got, want *Design) {
		t.Helper()
		if math.Float64bits(got.total) != math.Float64bits(want.total) {
			t.Fatalf("%s: total %v, a fresh design's %v", step, got.total, want.total)
		}
		for i := range want.proxy {
			if a, b := got.cdf.PartialSum(i), want.cdf.PartialSum(i); math.Float64bits(a) != math.Float64bits(b) {
				t.Fatalf("%s: prefix sum %d is %v, a fresh design's %v", step, i, a, b)
			}
		}
		r1, r2 := rand.New(rand.NewSource(int64(len(step)))), rand.New(rand.NewSource(int64(len(step))))
		for k := 0; k < 64; k++ {
			if a, b := got.Draw(r1), want.Draw(r2); a != b || math.Float64bits(got.Prob(a)) != math.Float64bits(want.Prob(b)) {
				t.Fatalf("%s: draw %d is %d, a fresh design's %d", step, k, a, b)
			}
		}
		if sorted := got.sortedProxy(); !slices.EqualFunc(sorted, want.sortedProxy(), func(a, b float64) bool { return cmp.Compare(a, b) == 0 }) {
			t.Fatalf("%s: sorted copy %v, a fresh sort %v", step, sorted, want.sortedProxy())
		}
	}
	r := rand.New(rand.NewSource(1))
	proxy := make([]float64, 300)
	for i := range proxy {
		proxy[i] = float64(r.Intn(5)) / 4
	}
	d := NewDesign(proxy)
	for step := 0; step < 40; step++ {
		if step%2 == 0 {
			d.sortedProxy()
		}
		next := slices.Clone(proxy)
		var changed []int
		for i := range next {
			if r.Intn(40) == 0 {
				changed = append(changed, i)
				next[i] = []float64{math.Copysign(0, -1), 0, 0.75, r.Float64() * 2}[r.Intn(4)]
			}
		}
		for range r.Intn(6) {
			next = append(next, float64(r.Intn(9))/8)
		}
		got := d.Successor(next, changed)
		same(fmt.Sprint("step ", step), got, NewDesign(next))
		proxy, d = next, got
	}
	proxy[3] = math.NaN()
	d = NewDesign(proxy)
	d.sortedProxy()
	next := append(slices.Clone(proxy), 0.5)
	next[200] = 1.5
	same("after a NaN", d.Successor(next, []int{200}), NewDesign(next))
}
