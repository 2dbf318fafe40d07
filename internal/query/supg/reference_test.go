package supg

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"runtime/debug"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/xrand"
)

// referenceCategorical is xrand.Categorical as it stood when drawSample
// called it once per draw: two linear passes over the corpus weights.
func referenceCategorical(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: categorical distribution has no mass")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// referenceDrawSample is drawSample as it stood before the CDF: an O(n)
// categorical draw per labeled record. Kept verbatim as the reference.
func referenceDrawSample(opts Options, n int, proxy []float64, pred Predicate, lab labeler.Labeler) (*sample, error) {
	weights := make([]float64, n)
	total := 0.0
	for i, p := range proxy {
		if p < 0 {
			p = 0
		}
		weights[i] = math.Sqrt(p) + 0.05
		total += weights[i]
	}

	r := xrand.New(opts.Seed)
	budget := opts.Budget
	if budget > n {
		budget = n
	}
	s := &sample{
		ids:     make([]int, 0, budget),
		labels:  make([]bool, 0, budget),
		weights: make([]float64, 0, budget),
	}
	qs := make([]float64, 0, budget)
	for len(s.ids) < budget {
		id := referenceCategorical(r, weights)
		ann, err := lab.Label(id)
		if err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(s.ids) > 0 {
				s.degraded = true
				break
			}
			return nil, fmt.Errorf("supg: labeling record %d: %w", id, err)
		}
		s.ids = append(s.ids, id)
		s.labels = append(s.labels, pred(ann))
		qs = append(qs, weights[id]/total)
	}
	actual := len(s.ids)
	for _, q := range qs {
		s.weights = append(s.weights, 1/(float64(actual)*q))
	}
	meanW := 0.0
	for _, w := range s.weights {
		meanW += w
	}
	meanW /= float64(len(s.weights))
	clip := 8 * meanW
	for i, w := range s.weights {
		if w > clip {
			s.weights[i] = clip
		}
	}
	return s, nil
}

// drawLog records the record IDs a run asks its labeler for, in order.
type drawLog struct {
	labeler.Labeler
	ids []int
}

func (d *drawLog) Label(id int) (dataset.Annotation, error) {
	d.ids = append(d.ids, id)
	return d.Labeler.Label(id)
}

// tabled is the match source of a caller that knows every record's answer
// without its annotation, and reports the answers of the records known
// accepts ahead of their draws — the way a served request peeks at an
// exact-score column. Every draw, known or not, is charged to lab, which is
// the only effect a draw has; a peeked draw answers with what Peek found.
type tabled struct {
	truth []bool
	known func(id int) bool
	lab   labeler.Labeler
}

func (s tabled) Peek(ids []int, match, known []bool) {
	for i, id := range ids {
		known[i] = s.known(id)
		// An unknown draw gets the wrong answer, which a sampler that used
		// it would carry into its sample.
		match[i] = s.truth[id] == known[i]
	}
}

func (s tabled) Match(id int, match, known bool) (bool, error) {
	if _, err := s.lab.Label(id); err != nil {
		return false, err
	}
	if known {
		return match, nil
	}
	return s.truth[id], nil
}

// knowsNone, knowsHalf and knowsAll say which records a tabled source peeks.
func knowsNone(int) bool    { return false }
func knowsHalf(id int) bool { return id%2 == 0 }
func knowsAll(int) bool     { return true }

// entries are the ways into every sampler body: the annotation adapter and
// match sources that never look at an annotation, peeking at no record, at
// half of them and at every one.
var entries = []struct {
	name   string
	source func(pred Predicate, truth []bool, lab labeler.Labeler) MatchSource
}{
	{"annotations", func(pred Predicate, _ []bool, lab labeler.Labeler) MatchSource { return labeled(pred, lab) }},
	{"values", func(_ Predicate, truth []bool, lab labeler.Labeler) MatchSource { return tabled{truth, knowsNone, lab} }},
	{"half known", func(_ Predicate, truth []bool, lab labeler.Labeler) MatchSource { return tabled{truth, knowsHalf, lab} }},
	{"all known", func(_ Predicate, truth []bool, lab labeler.Labeler) MatchSource { return tabled{truth, knowsAll, lab} }},
}

// failAt is a labeler whose call number at fails with context.Canceled, the
// way a request canceled mid-query fails its next draw.
type failAt struct {
	labeler.Labeler
	at, calls int64
}

func (f *failAt) Label(id int) (dataset.Annotation, error) {
	if f.calls++; f.calls == f.at {
		return nil, context.Canceled
	}
	return f.Labeler.Label(id)
}

// matches runs the query over a match source and lists the returned set.
func matches(d *Design, opts Options, match MatchSource) (Result, error) {
	sel, err := d.RecallTargetSelection(opts, match)
	if err != nil {
		return Result{}, err
	}
	return sel.Result(), nil
}

// sameResult reports whether two results are equal, the threshold by its
// bits and a nil returned set distinct from an empty one.
func sameResult(a, b Result) bool {
	return math.Float64bits(a.Threshold) == math.Float64bits(b.Threshold) &&
		a.OracleCalls == b.OracleCalls && a.Degraded == b.Degraded && reflect.DeepEqual(a.Returned, b.Returned)
}

// selectBoth runs one query through both entries — predicate and labeler,
// and a table of the records' answers that only charges its labeler — each on
// its own newLab(). It fails the test unless the two agree on the Result, on
// failing at all, and on the sequence of records drawn; it returns the one
// answer.
func selectBoth(t *testing.T, d *Design, opts Options, pred Predicate, truth []bool, newLab func() labeler.Labeler) (Result, error) {
	t.Helper()
	viaAnn := &drawLog{Labeler: newLab()}
	want, wantErr := matches(d, opts, labeled(pred, viaAnn))
	viaValues := &drawLog{Labeler: newLab()}
	got, gotErr := matches(d, opts, tabled{truth, knowsHalf, viaValues})
	if (wantErr == nil) != (gotErr == nil) || errors.Is(wantErr, labeler.ErrBudgetExhausted) != errors.Is(gotErr, labeler.ErrBudgetExhausted) {
		t.Fatalf("match source failed with %v, annotation entry with %v", gotErr, wantErr)
	}
	if !sameResult(got, want) {
		t.Fatalf("match source and annotation entry disagree:\n got %+v\nwant %+v", got, want)
	}
	if !reflect.DeepEqual(viaValues.ids, viaAnn.ids) {
		t.Fatalf("match source drew %d records, annotation entry %d, or in another order", len(viaValues.ids), len(viaAnn.ids))
	}
	return want, wantErr
}

// TestDrawSampleMatchesReference requires the CDF-search draw, through every
// entry, to produce the same record IDs, labels and importance weights as the
// per-draw linear scan, and to ask its labeler for the same records — with
// zero and negative proxy scores in the corpus, a budget larger than the
// corpus, a label budget that runs out mid-draw, and a cancellation that fails
// a draw; the sample's end, the exhausting draw and the failing draw each also
// fall on either side of a block boundary and on one.
func TestDrawSampleMatchesReference(t *testing.T) {
	ds, _, pred, truth := selectionEnv(t, 2500)
	good := goodProxy(truth, 0.15, 2)
	signed := make([]float64, len(good)) // zeros, negatives and positives mixed
	for i, v := range good {
		switch i % 4 {
		case 0:
			signed[i] = 0
		case 1:
			signed[i] = -v
		default:
			signed[i] = v
		}
	}
	proxies := map[string][]float64{"good": good, "signed": signed, "zero": make([]float64, len(good))}
	type variant struct {
		name        string
		budget      int
		labelBudget int64 // 0 = unlimited
		failAt      int64 // 0 = never
	}
	variants := []variant{
		{"plain", 300, 0, 0},
		{"budget>n", 4000, 0, 0},
		{"exhausted", 300, 120, 0},
		{"canceled", 300, 0, 150},
	}
	for _, k := range []int{xrand.Block - 1, xrand.Block, xrand.Block + 1, 2 * xrand.Block} {
		variants = append(variants,
			variant{fmt.Sprintf("ends at draw %d", k), k, 0, 0},
			variant{fmt.Sprintf("exhausted at draw %d", k), 300, int64(k - 1), 0},
			variant{fmt.Sprintf("canceled at draw %d", k), 300, 0, int64(k)})
	}
	for name, proxy := range proxies {
		for _, v := range variants {
			for seed := int64(1); seed <= 5; seed++ {
				newLab := func() labeler.Labeler {
					var lab labeler.Labeler = labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
					if v.labelBudget > 0 {
						lab = labeler.NewBudgeted(lab, v.labelBudget)
					}
					if v.failAt > 0 {
						lab = &failAt{Labeler: lab, at: v.failAt}
					}
					return lab
				}
				opts := Options{Budget: v.budget, Target: 0.9, Delta: 0.05, Seed: seed}
				refLab := &drawLog{Labeler: newLab()}
				want, refErr := referenceDrawSample(opts, ds.Len(), proxy, pred, refLab)
				for _, e := range entries {
					lab := &drawLog{Labeler: newLab()}
					got, err := NewDesign(proxy).drawSample(opts, e.source(pred, truth, lab))
					if v.failAt > 0 {
						if !errors.Is(refErr, context.Canceled) || !errors.Is(err, context.Canceled) {
							t.Fatalf("%s %s seed=%d %s: failed with %v, reference with %v", name, v.name, seed, e.name, err, refErr)
						}
						if !reflect.DeepEqual(lab.ids, refLab.ids) || int64(len(lab.ids)) != v.failAt {
							t.Fatalf("%s %s seed=%d %s: %d labeler calls, reference %d, or for other records", name, v.name, seed, e.name, len(lab.ids), len(refLab.ids))
						}
						continue
					}
					if refErr != nil || err != nil {
						t.Fatalf("%s %s seed=%d %s: failed with %v, reference with %v", name, v.name, seed, e.name, err, refErr)
					}
					if !reflect.DeepEqual(got.ids, want.ids) || !reflect.DeepEqual(got.labels, want.labels) ||
						!reflect.DeepEqual(got.weights, want.weights) || got.degraded != want.degraded {
						t.Fatalf("%s %s seed=%d %s: sample differs from the reference (ids equal: %v, weights equal: %v, degraded %v/%v)",
							name, v.name, seed, e.name, reflect.DeepEqual(got.ids, want.ids), reflect.DeepEqual(got.weights, want.weights), got.degraded, want.degraded)
					}
					if !reflect.DeepEqual(lab.ids, refLab.ids) {
						t.Fatalf("%s %s seed=%d %s: %d labeler calls, reference %d, or for other records", name, v.name, seed, e.name, len(lab.ids), len(refLab.ids))
					}
					if wantDegraded := v.labelBudget > 0; got.degraded != wantDegraded {
						t.Fatalf("%s %s seed=%d %s: degraded = %v", name, v.name, seed, e.name, got.degraded)
					}
					if v.name == "budget>n" && len(got.ids) != ds.Len() {
						t.Fatalf("%s %s: %d draws, want the corpus size %d", v.name, e.name, len(got.ids), ds.Len())
					}
					got.release()
				}
			}
		}
	}
}

// TestSampleReuse: the vectors a query leaves in the pool must not reach the
// next query's answer. A large and a small query over different corpora, back
// to back and then from two goroutines at once (under -race), answer exactly
// what each answers on an empty pool.
func TestSampleReuse(t *testing.T) {
	_, lab, pred, truth := selectionEnv(t, 2500)
	type query struct {
		d    *Design
		opts Options
	}
	queries := []query{
		{NewDesign(goodProxy(truth, 0.15, 2)), Options{Budget: 600, Target: 0.9, Delta: 0.05, Seed: 1}},
		{NewDesign(goodProxy(truth[:700], 0.4, 3)), Options{Budget: 90, Target: 0.8, Delta: 0.05, Seed: 2}},
	}
	fresh := make([]Result, len(queries))
	for i, q := range queries {
		samplePool = sync.Pool{New: func() any { return new(sample) }}
		res, err := matches(q.d, q.opts, labeled(pred, lab))
		if err != nil {
			t.Fatal(err)
		}
		fresh[i] = res
	}
	run := func(rounds int) error {
		for r := 0; r < rounds; r++ {
			for i, q := range queries {
				got, err := matches(q.d, q.opts, labeled(pred, lab))
				if err != nil {
					return err
				}
				if !sameResult(got, fresh[i]) {
					return fmt.Errorf("round %d query %d on a reused sample: threshold %v with %d returned, want %v with %d",
						r, i, got.Threshold, len(got.Returned), fresh[i].Threshold, len(fresh[i].Returned))
				}
			}
		}
		return nil
	}
	if err := run(3); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		go func() { errs <- run(10) }()
	}
	for g := 0; g < 2; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}

// BenchmarkDrawSample reports the marginal cost of one more draw at two
// corpus sizes: the time difference between a large and a small budget over
// the difference in draws, which cancels the one-off O(n) weight and
// prefix-sum passes. It must not scale with n the way a per-draw linear scan
// does (ns/op is the large-budget run, O(n) passes included).
func BenchmarkDrawSample(b *testing.B) {
	const small, large = 500, 2500
	for _, n := range []int{20000, 60000} {
		ds, err := dataset.Generate("night-street", n, 1)
		if err != nil {
			b.Fatal(err)
		}
		lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
		pred := func(ann dataset.Annotation) bool { return ann.(dataset.VideoAnnotation).Count("car") >= 1 }
		truth := make([]bool, n)
		for i, ann := range ds.Truth {
			truth[i] = pred(ann)
		}
		proxy := goodProxy(truth, 0.15, 2)
		run := func(b *testing.B, budget int, seed int64) {
			opts := Options{Budget: budget, Target: 0.9, Delta: 0.05, Seed: seed}
			s, err := NewDesign(proxy).drawSample(opts, labeled(pred, lab))
			if err != nil {
				b.Fatal(err)
			}
			s.release()
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			var smallTime time.Duration
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				start := time.Now()
				run(b, small, int64(i))
				smallTime += time.Since(start)
				b.StartTimer()
				run(b, large, int64(i))
			}
			b.ReportMetric(float64(b.Elapsed()-smallTime)/float64(b.N)/(large-small), "ns/draw")
		})
	}
}

// referenceAssemble is the returned-set builder as it stood before Selection:
// an n-bool membership vector written in full, the sample overrides applied
// in draw order, and the members collected. Kept verbatim (its pooled vector
// made local) as the reference for Len and IDs.
func referenceAssemble(proxy []float64, threshold float64, s *sample) []int {
	include := make([]bool, len(proxy))
	count := 0
	for i, p := range proxy {
		in := p >= threshold
		include[i] = in
		if in {
			count++
		}
	}
	for i, id := range s.ids {
		// Sampled negatives are known non-matches; excluding them is free
		// precision. A record drawn twice is settled by its last draw.
		if include[id] != s.labels[i] {
			include[id] = s.labels[i]
			if s.labels[i] {
				count++
			} else {
				count--
			}
		}
	}
	if count == 0 {
		return nil
	}
	out := make([]int, 0, count)
	for i, ok := range include {
		if ok {
			out = append(out, i)
		}
	}
	return out
}

// TestSelectionMatchesReferenceAssemble settles each case through the
// Selection entry and requires Len, the first 20 IDs and the full listing to
// be what the old membership vector gives over the same sample and threshold
// — and the Result entry to list the same set. The cases cover each way the
// rule can go wrong: the fallback threshold (no sampled positive: −Inf),
// records drawn more than once with both labels, a degraded sample cut short
// by the label budget, an empty set, and proxy scores tied exactly at the
// threshold.
func TestSelectionMatchesReferenceAssemble(t *testing.T) {
	_, _, _, truth := selectionEnv(t, 1200)
	good := goodProxy(truth, 0.15, 2)
	// Ties: scores on a coarse grid, so every threshold is shared by many
	// records.
	tied := make([]float64, len(good))
	for i, p := range good {
		tied[i] = math.Round(p*4) / 4
	}
	none := MatchFunc(func(int) (bool, error) { return false, nil })
	type tcase struct {
		name   string
		proxy  []float64
		opts   Options
		source func() MatchSource
		check  func(sel Selection, s *sample) string
	}
	truthSource := func(labelBudget int64) func() MatchSource {
		return func() MatchSource {
			var calls int64
			return MatchFunc(func(id int) (bool, error) {
				if labelBudget > 0 && calls == labelBudget {
					return false, labeler.ErrBudgetExhausted
				}
				calls++
				return truth[id], nil
			})
		}
	}
	cases := []tcase{
		{"plain", good, Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: 1}, truthSource(0), nil},
		{"no sampled positive", good, Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: 2},
			func() MatchSource { return none },
			func(sel Selection, _ *sample) string {
				// Recall falls back to −Inf: everything but the sampled
				// negatives.
				if !math.IsInf(sel.Threshold, -1) {
					return fmt.Sprintf("threshold %v with no sampled positive", sel.Threshold)
				}
				return ""
			}},
		{"every record a sampled negative", []float64{0.3}, Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: 6},
			func() MatchSource { return none },
			func(sel Selection, s *sample) string {
				if len(s.ids) != 1 || !math.IsInf(sel.Threshold, -1) {
					return fmt.Sprintf("%d draws at threshold %v", len(s.ids), sel.Threshold)
				}
				return ""
			}},
		{"drawn twice", good, Options{Budget: 900, Target: 0.8, Delta: 0.05, Seed: 3},
			// Every record is a match on its first draw and a non-match on
			// every later one, so a record drawn twice has first and last
			// draws that disagree.
			func() MatchSource {
				draws := map[int]int{}
				return MatchFunc(func(id int) (bool, error) {
					draws[id]++
					return draws[id] == 1, nil
				})
			},
			func(_ Selection, s *sample) string {
				seen := map[int]map[bool]bool{}
				for i, id := range s.ids {
					if seen[id] == nil {
						seen[id] = map[bool]bool{}
					}
					seen[id][s.labels[i]] = true
				}
				for _, labels := range seen {
					if len(labels) == 2 {
						return ""
					}
				}
				return "no record drawn twice with both labels"
			}},
		{"degraded", good, Options{Budget: 300, Target: 0.9, Delta: 0.05, Seed: 4}, truthSource(70),
			func(sel Selection, _ *sample) string {
				if !sel.Degraded || sel.OracleCalls != 70 {
					return fmt.Sprintf("degraded=%v after %d calls", sel.Degraded, sel.OracleCalls)
				}
				return ""
			}},
		{"ties at threshold", tied, Options{Budget: 200, Target: 0.9, Delta: 0.05, Seed: 5}, truthSource(0),
			func(sel Selection, _ *sample) string {
				at := 0
				for _, p := range tied {
					if p == sel.Threshold {
						at++
					}
				}
				if at < 2 {
					return fmt.Sprintf("%d records at the threshold %v", at, sel.Threshold)
				}
				return ""
			}},
	}
	empty := 0
	for _, c := range cases {
		d := NewDesign(c.proxy)
		sel, err := d.RecallTargetSelection(c.opts, c.source())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s, err := d.drawSample(c.opts, c.source())
		if err != nil {
			t.Fatal(err)
		}
		want := referenceAssemble(c.proxy, sel.Threshold, s)
		if c.check != nil {
			if msg := c.check(sel, s); msg != "" {
				t.Errorf("%s: the case does not arise: %s", c.name, msg)
			}
		}
		s.release()
		if sel.Len() != len(want) {
			t.Errorf("%s: Len %d, reference %d", c.name, sel.Len(), len(want))
		}
		// An empty reference is nil, and so must IDs be: the served body
		// encodes it as null.
		if got, head := sel.IDs(20), want[:min(20, len(want))]; !reflect.DeepEqual(got, head) {
			t.Errorf("%s: IDs(20) = %v, reference head %v", c.name, got, head)
		}
		if got := sel.Result().Returned; !reflect.DeepEqual(got, want) {
			t.Errorf("%s: listed %d records, reference %d, or others", c.name, len(got), len(want))
		}
		res, err := matches(d, c.opts, c.source())
		if err != nil || !sameResult(res, sel.Result()) {
			t.Errorf("%s: the Result entry disagrees with its Selection (%v)", c.name, err)
		}
		if len(want) == 0 {
			empty++
		}
	}
	if empty == 0 {
		t.Error("no case settled on an empty set")
	}
	t.Run("count", testCountMatchesLinearCount)
}

// referenceLen is Selection.Len as it stood before the sorted copy: one
// branch-free, read-only pass over the proxy scores, then the overrides'
// corrections. Kept verbatim as the reference the binary search must equal.
func referenceLen(proxy []float64, t float64, overrides []override) int {
	count := 0
	for _, p := range proxy {
		count += b2i(p >= t)
	}
	for _, o := range overrides {
		count += b2i(o.positive) - b2i(proxy[o.id] >= t)
	}
	return count
}

// testCountMatchesLinearCount settles hand-built samples at chosen
// thresholds — the values a binary search over sorted floats is easiest to
// get wrong on — and requires Len to equal the linear count, the length of
// the full listing and the old membership vector's count.
func testCountMatchesLinearCount(t *testing.T) {
	negZero := math.Copysign(0, -1)
	nan, inf := math.NaN(), math.Inf(1)
	grid := make([]float64, 400)
	for i := range grid {
		grid[i] = float64(i%9) / 8 // every score shared by ~44 records
	}
	signed := make([]float64, 400)
	for i := range signed {
		signed[i] = []float64{-1, negZero, 0, 0.5, -0.25, negZero}[i%6]
	}
	withNaN := make([]float64, 400)
	for i := range withNaN {
		withNaN[i] = float64(i%7) / 6
		if i%5 == 0 {
			withNaN[i] = nan
		}
	}
	equal := make([]float64, 400)
	for i := range equal {
		equal[i] = 0.5
	}
	cases := []struct {
		name       string
		proxy      []float64
		thresholds []float64
		ids        []int
		labels     []bool
		degraded   bool
	}{
		{"−Inf fallback", grid, []float64{-inf}, []int{3, 40, 41, 399}, []bool{false, false, true, false}, false},
		{"ties at τ", grid, []float64{0, 0.25, 0.5, 1}, []int{0, 9, 18, 4, 13}, []bool{true, false, true, false, true}, false},
		{"all equal", equal, []float64{0.5, math.Nextafter(0.5, 1), math.Nextafter(0.5, 0), -inf, inf},
			[]int{7, 8, 300}, []bool{false, true, false}, false},
		{"negative and ±0", signed, []float64{0, negZero, -0.25, -1, math.Nextafter(0, 1), math.Nextafter(0, -1)},
			[]int{0, 1, 2, 3, 5}, []bool{true, true, false, false, true}, false},
		{"NaN scores", withNaN, []float64{0, 0.5, 1, -inf, inf, nan},
			[]int{0, 5, 6, 10, 12}, []bool{true, true, false, false, true}, false},
		{"one record", []float64{0.7}, []float64{0.7, 0.8, -inf}, []int{0}, []bool{false}, false},
		{"drawn twice", grid, []float64{0.5}, []int{4, 13, 4, 13, 22, 4}, []bool{true, false, false, true, true, true}, false},
		{"degraded", grid, []float64{0.375}, []int{2, 11}, []bool{true, false}, true},
	}
	for _, c := range cases {
		d := NewDesign(c.proxy)
		for _, th := range c.thresholds {
			name := fmt.Sprintf("%s τ=%v", c.name, th)
			s := &sample{ids: c.ids, labels: c.labels, degraded: c.degraded}
			sel := d.selection(Options{}, th, s)
			want := referenceLen(c.proxy, th, sel.overrides)
			if got := sel.Len(); got != want {
				t.Errorf("%s: Len %d, linear count %d", name, got, want)
			}
			if got := len(sel.Result().Returned); got != want {
				t.Errorf("%s: listed %d records, linear count %d", name, got, want)
			}
			if got := len(referenceAssemble(c.proxy, th, s)); got != want {
				t.Errorf("%s: membership vector holds %d records, linear count %d", name, got, want)
			}
			if sel.Degraded != c.degraded {
				t.Errorf("%s: degraded %v", name, sel.Degraded)
			}
		}
	}

	// The first counts over a fresh design race to build its sorted copy;
	// each must read the whole of it (run under -race).
	sel := NewDesign(grid).selection(Options{}, 0.5, &sample{ids: []int{1}, labels: []bool{true}})
	want := referenceLen(grid, 0.5, sel.overrides)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := sel.Len(); got != want {
				t.Errorf("concurrent first count: Len %d, linear count %d", got, want)
			}
		}()
	}
	wg.Wait()
}

// TestOneShotSelectNeverSorts: a one-shot RecallTarget lists its set without
// counting it first, so it never builds the design's sorted copy — 8 bytes a
// record. Beyond the design it builds and the set it returns (append's growth
// included), it must allocate less than that.
func TestOneShotSelectNeverSorts(t *testing.T) {
	const n = 20000
	ds, lab, pred, truth := selectionEnv(t, n)
	proxy := goodProxy(truth, 0.15, 2)
	opts := Options{Budget: 300, Target: 0.9, Delta: 0.05, Seed: 1}
	allocated := func(f func()) uint64 {
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	var res Result
	run := func() {
		var err error
		if res, err = RecallTarget(opts, ds.Len(), proxy, pred, lab); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the sample pool
	total := allocated(run)
	design := allocated(func() { NewDesign(proxy) })
	// The listing doubles its room as it fills: less than twice the final
	// room in all.
	set := uint64(2 * 8 * cap(res.Returned))
	if len(res.Returned) == 0 || total >= design+set+8*n {
		t.Fatalf("one-shot RecallTarget allocated %d bytes: %d for its design, %d listing %d records",
			total, design, set, len(res.Returned))
	}
	t.Logf("allocated %d bytes beyond the design and the listing of %d records", total-design-set, len(res.Returned))
}

// referenceThreshold is RecallTargetSelection's threshold search as it stood
// before it skipped candidates and sorted with slices.SortFunc: the O(P)
// variance pass at every candidate. Kept verbatim (its pooled positives made
// local) as the reference the search must equal bit for bit.
func referenceThreshold(opts Options, proxy []float64, s *sample) float64 {
	totalW := 0.0
	var positives []posSample
	for i := range s.ids {
		if s.labels[i] {
			totalW += s.weights[i]
			positives = append(positives, posSample{score: proxy[s.ids[i]], weight: s.weights[i]})
		}
	}

	threshold := math.Inf(-1) // fallback: return everything
	if totalW > 0 {
		sort.Slice(positives, func(i, j int) bool { return positives[i].score > positives[j].score })
		z := normalQuantile(1 - opts.Delta)
		acc := 0.0
		for i, p := range positives {
			acc += p.weight
			// Candidate thresholds sit at distinct score boundaries.
			if i+1 < len(positives) && positives[i+1].score == p.score {
				continue
			}
			recall := acc / totalW
			// Var(A/B) ~ sum_j w_j^2 (1[above] - R)^2 / B^2 over the
			// positive sample (delta method for a ratio of weighted sums).
			varSum := 0.0
			for j, q := range positives {
				ind := 0.0
				if j <= i {
					ind = 1
				}
				d := ind - recall
				varSum += q.weight * q.weight * d * d
			}
			se := math.Sqrt(varSum) / totalW
			// The continuity correction guards the discrete positive sample
			// against the normal approximation's undercoverage at small
			// budgets.
			correction := 0.5 / float64(len(positives))
			if recall-z*se-correction >= opts.Target {
				threshold = p.score
				break
			}
		}
		if math.IsInf(threshold, -1) {
			// No candidate cleared the bound; return everything at or above
			// the weakest sampled positive, the conservative fallback.
			threshold = positives[len(positives)-1].score
		}
	}
	return threshold
}

// candidateBounds returns recall less the continuity correction at each of
// the sample's candidate thresholds, in the order the search visits them:
// the bound it tests when z is 0 (Delta 0.5). A target equal to one of them
// is met with equality, the case a skip that tests <= instead of < gets
// wrong.
func candidateBounds(proxy []float64, s *sample) []float64 {
	totalW := 0.0
	var positives []posSample
	for i := range s.ids {
		if s.labels[i] {
			totalW += s.weights[i]
			positives = append(positives, posSample{score: proxy[s.ids[i]], weight: s.weights[i]})
		}
	}
	sort.Slice(positives, func(i, j int) bool { return positives[i].score > positives[j].score })
	var bounds []float64
	acc := 0.0
	for i, p := range positives {
		acc += p.weight
		if i+1 < len(positives) && positives[i+1].score == p.score {
			continue
		}
		bounds = append(bounds, acc/totalW-0.5/float64(len(positives)))
	}
	return bounds
}

// TestThresholdMatchesReference settles each case through
// RecallTargetSelection and requires the threshold's bits, Len and the
// first 20 IDs to be what the verbatim search and the old membership vector
// give over the same sample. The cases: the served benchmark's seven select
// shapes at three seeds and two proxies; tie-heavy proxies with ±0 and a NaN;
// Delta above 0.5, where z is negative and no candidate may be skipped;
// samples cut short by the label budget; and, at Delta 0.5, targets equal to
// a candidate's bound.
func TestThresholdMatchesReference(t *testing.T) {
	type tcase struct {
		name   string
		proxy  []float64
		truth  []bool
		opts   Options
		labels int // label budget, 0 = unlimited
	}
	var cases []tcase
	for _, sh := range selectShapes {
		truth := taipeiTruth(t, sh.class, sh.count)
		for _, noise := range []float64{0.15, 0.4} {
			proxy := goodProxy(truth, noise, 2)
			for seed := int64(1); seed <= 3; seed++ {
				for _, delta := range []float64{0.05, 0.3, 0.7} {
					cases = append(cases, tcase{
						fmt.Sprintf("%s noise=%v seed=%d delta=%v", sh, noise, seed, delta), proxy, truth,
						Options{Budget: sh.budget, Target: sh.recall, Delta: delta, Seed: seed}, 0})
				}
			}
		}
	}

	_, _, _, truth := selectionEnv(t, 3000)
	negZero := math.Copysign(0, -1)
	// Four distinct scores, the lowest of them a mix of 0 and -0, so every
	// candidate is shared by hundreds of records and most sampled positives
	// tie.
	tied := make([]float64, len(truth))
	for i, p := range goodProxy(truth, 0.3, 4) {
		tied[i] = math.Round(p * 3)
		if tied[i] == 0 && i%2 == 0 {
			tied[i] = negZero
		}
	}
	withNaN := slices.Clone(tied)
	withNaN[17] = math.NaN()
	good := goodProxy(truth, 0.15, 2)
	for seed := int64(1); seed <= 4; seed++ {
		for _, target := range []float64{0.5, 0.8, 0.95, 0.99} {
			for _, delta := range []float64{0.05, 0.3, 0.7, 0.95} {
				for _, p := range []struct {
					name  string
					proxy []float64
				}{{"tied", tied}, {"NaN", withNaN}, {"good", good}} {
					for _, budget := range []int{20, 150, 600} {
						opts := Options{Budget: budget, Target: target, Delta: delta, Seed: seed}
						name := fmt.Sprintf("%s b%d r%v delta=%v seed=%d", p.name, budget, target, delta, seed)
						cases = append(cases, tcase{name, p.proxy, truth, opts, 0},
							tcase{name + " degraded", p.proxy, truth, opts, budget / 3})
					}
				}
			}
		}
	}

	run := func(c tcase) {
		t.Helper()
		source := func() MatchSource {
			calls := 0
			return MatchFunc(func(id int) (bool, error) {
				if c.labels > 0 && calls == c.labels {
					return false, labeler.ErrBudgetExhausted
				}
				calls++
				return c.truth[id], nil
			})
		}
		d := NewDesign(c.proxy)
		sel, err := d.RecallTargetSelection(c.opts, source())
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s, err := d.drawSample(c.opts, source())
		if err != nil {
			t.Fatal(err)
		}
		defer s.release()
		want := referenceThreshold(c.opts, c.proxy, s)
		if math.Float64bits(sel.Threshold) != math.Float64bits(want) {
			t.Fatalf("%s: threshold %v (%#x), reference %v (%#x)", c.name,
				sel.Threshold, math.Float64bits(sel.Threshold), want, math.Float64bits(want))
		}
		set := referenceAssemble(c.proxy, want, s)
		if sel.Len() != len(set) {
			t.Fatalf("%s: Len %d, reference %d", c.name, sel.Len(), len(set))
		}
		if got, head := sel.IDs(20), set[:min(20, len(set))]; !reflect.DeepEqual(got, head) {
			t.Fatalf("%s: IDs(20) = %v, reference head %v", c.name, got, head)
		}
		if sel.Degraded != (c.labels > 0) {
			t.Fatalf("%s: degraded %v", c.name, sel.Degraded)
		}
	}
	for _, c := range cases {
		run(c)
	}

	// Targets a candidate meets with equality, at Delta 0.5 (z = 0, so the
	// search tests recall - correction itself).
	met := 0
	for _, budget := range []int{40, 300} {
		for seed := int64(1); seed <= 3; seed++ {
			opts := Options{Budget: budget, Delta: 0.5, Seed: seed}
			s, err := NewDesign(good).drawSample(opts, MatchFunc(func(id int) (bool, error) { return truth[id], nil }))
			if err != nil {
				t.Fatal(err)
			}
			bounds := candidateBounds(good, s)
			s.release()
			for _, b := range bounds {
				if b <= 0 || b >= 1 {
					continue
				}
				opts.Target = b
				run(tcase{fmt.Sprintf("b%d seed=%d target=bound %v", budget, seed, b), good, truth, opts, 0})
				met++
			}
		}
	}
	if met < 10 {
		t.Fatalf("only %d targets on a candidate's bound", met)
	}
}

// TestDrawKeySortMatchesSort requires the radix sort of draw keys to order
// them as slices.Sort does: records drawn many times, IDs 0, 255 and 256
// (either side of a byte), and IDs up to 2³¹−1, which take all four passes.
func TestDrawKeySortMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	random := func(n, below int) []int {
		ids := make([]int, n)
		for i := range ids {
			ids[i] = r.Intn(below)
		}
		return ids
	}
	cases := map[string][]int{
		"empty":          nil,
		"one":            {7},
		"zero only":      {0, 0, 0},
		"byte edges":     {256, 255, 0, 256, 1, 255, 0, 257, 511, 512, 65535, 65536, 255},
		"duplicates":     random(1000, 40),
		"two bytes":      random(1000, 20000),
		"shared top":     random(1000, 1<<17),
		"largest":        {1<<31 - 1, 0, 1<<31 - 1, 1 << 24, 1<<24 - 1, 255, 1<<31 - 1},
		"up to 2^31 - 1": append(random(1000, 1<<31), random(200, 300)...),
	}
	for name, ids := range cases {
		keys := make([]uint64, len(ids))
		for i, id := range ids {
			keys[i] = uint64(id)<<32 | uint64(i)
		}
		want := slices.Clone(keys)
		slices.Sort(want)
		got, other := sortDrawKeys(keys, make([]uint64, len(keys)))
		if !slices.Equal(got, want) {
			t.Errorf("%s: radix order differs from slices.Sort", name)
		}
		if len(other) != len(keys) {
			t.Errorf("%s: spare buffer of %d keys, want %d", name, len(other), len(keys))
		}
	}
}
