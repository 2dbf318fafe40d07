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

// naive is what the naive reference computes for one recall-target query.
type naive struct {
	drawn     []int  // the records drawn, in draw order
	labels    []bool // each draw's match
	degraded  bool
	threshold float64
	bounds    []float64 // recall less the continuity correction at each candidate, in search order
	set       []int     // the returned set, ascending; nil when empty
}

// naiveRecallTarget is the recall-target query written out plainly, the
// reference the sampler must equal bit for bit: weighted draws, then the
// delta-method threshold search, then the set proxy ≥ τ with every sampled
// record taking its last draw's label. Each draw searches the running sums of
// the positive weights; every candidate threshold gets the full variance
// pass. match answers each draw, and its error ends the draws: a label budget
// run out after the first draw degrades the sample, any other error fails.
func naiveRecallTarget(opts Options, proxy []float64, match func(id int) (bool, error)) (naive, error) {
	var res naive
	// Draws with probability ∝ √max(proxy, 0) + 0.05.
	weights, sums := make([]float64, len(proxy)), make([]float64, len(proxy))
	total, positive := 0.0, 0.0
	for i, p := range proxy {
		if p < 0 {
			p = 0
		}
		weights[i] = math.Sqrt(p) + 0.05
		total += weights[i]
		if weights[i] > 0 {
			positive += weights[i]
		}
		sums[i] = positive
	}
	r := xrand.New(opts.Seed)
	var qs []float64
	for len(res.drawn) < min(opts.Budget, len(proxy)) {
		u := r.Float64() * positive
		id := min(sort.Search(len(sums), func(i int) bool { return u < sums[i] }), len(sums)-1)
		ok, err := match(id)
		if err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(res.drawn) > 0 {
				res.degraded = true
				break
			}
			return res, err
		}
		res.drawn, res.labels, qs = append(res.drawn, id), append(res.labels, ok), append(qs, weights[id]/total)
	}
	// Importance weights 1/(B·q) over the B draws made, clipped at 8× their
	// mean.
	w, mean := make([]float64, len(qs)), 0.0
	for i, q := range qs {
		w[i] = 1 / (float64(len(qs)) * q)
		mean += w[i]
	}
	mean /= float64(len(w))
	for i := range w {
		if w[i] > 8*mean {
			w[i] = 8 * mean
		}
	}
	// The highest distinct score of a sampled positive whose recall's lower
	// confidence bound clears the target; else the weakest positive's score;
	// with no positive, −Inf.
	type positiveDraw struct{ score, weight float64 }
	var pos []positiveDraw
	totalW := 0.0
	for i, id := range res.drawn {
		if res.labels[i] {
			totalW += w[i]
			pos = append(pos, positiveDraw{proxy[id], w[i]})
		}
	}
	res.threshold = math.Inf(-1)
	if totalW > 0 {
		sort.Slice(pos, func(i, j int) bool { return pos[i].score > pos[j].score })
		res.threshold = pos[len(pos)-1].score
		z, correction, acc := normalQuantile(1-opts.Delta), 0.5/float64(len(pos)), 0.0
		for i, p := range pos {
			acc += p.weight
			if i+1 < len(pos) && pos[i+1].score == p.score {
				continue
			}
			recall, varSum := acc/totalW, 0.0
			for j, q := range pos {
				ind := 0.0
				if j <= i {
					ind = 1
				}
				d := ind - recall
				varSum += q.weight * q.weight * d * d
			}
			res.bounds = append(res.bounds, recall-correction)
			if recall-z*(math.Sqrt(varSum)/totalW)-correction >= opts.Target {
				res.threshold = p.score
				break
			}
		}
	}
	res.set = naiveSet(proxy, res.threshold, res.drawn, res.labels)
	return res, nil
}

// naiveSet lists {id : proxy[id] ≥ threshold}, every drawn record taking the
// label of its last draw instead, in ascending order; nil when empty.
func naiveSet(proxy []float64, threshold float64, drawn []int, labels []bool) []int {
	in := make([]bool, len(proxy))
	for i, p := range proxy {
		in[i] = p >= threshold
	}
	for i, id := range drawn {
		in[id] = labels[i]
	}
	var set []int
	for id, ok := range in {
		if ok {
			set = append(set, id)
		}
	}
	return set
}

// free is a labeler that charges a draw nothing and answers nothing: the
// answer comes from the case, the limits from the wrappers around it.
type free struct{}

func (free) Label(int) (dataset.Annotation, error) { return nil, nil }
func (free) Name() string                          { return "free" }
func (free) Cost() labeler.CostModel               { return labeler.CostModel{} }

// refCase is one query the sampler must answer as the naive reference does.
type refCase struct {
	name  string
	d     *Design
	opts  Options
	truth []bool // each record's match
	// labels and failAt limit the draws: a label budget (0 = none), and the
	// labeler call that fails as a canceled request's does (0 = none).
	labels, failAt int64
	// answer, when set, answers the draws in place of truth: a fresh,
	// stateful answerer per run, which only the function entry can take.
	answer func() func(id int) bool
}

// run answers c through the naive reference and through each entry — a
// plain match function, as the one-shot RecallTarget's labeled predicate
// answers draws, and a table of the answers peeked at half of the records
// and at every one, as a served request peeks at an exact-score column —
// each charging its own labeler. Every entry must fail as the reference
// does, ask its labeler for the same records in the same order, and settle
// on the reference's threshold bits, accounting, Len, IDs(20) and listing.
func (c refCase) run(t *testing.T) (naive, error) {
	t.Helper()
	newLab := func() *drawLog {
		var lab labeler.Labeler = free{}
		if c.labels > 0 {
			lab = labeler.NewBudgeted(lab, c.labels)
		}
		if c.failAt > 0 {
			lab = &failAt{Labeler: lab, at: c.failAt}
		}
		return &drawLog{Labeler: lab}
	}
	answerer := func() func(int) bool {
		if c.answer != nil {
			return c.answer()
		}
		return func(id int) bool { return c.truth[id] }
	}
	function := func(lab labeler.Labeler) MatchFunc {
		answer := answerer()
		return func(id int) (bool, error) {
			if _, err := lab.Label(id); err != nil {
				return false, err
			}
			return answer(id), nil
		}
	}
	refLab := newLab()
	want, wantErr := naiveRecallTarget(c.opts, c.d.proxy, function(refLab))
	for _, e := range []struct {
		name  string
		known func(int) bool // nil: the plain function
	}{{"function", nil}, {"half known", knowsHalf}, {"all known", knowsAll}} {
		if e.known != nil && c.answer != nil {
			continue
		}
		at := c.name + " via " + e.name
		lab := newLab()
		var source MatchSource = function(lab)
		if e.known != nil {
			source = tabled{c.truth, e.known, lab}
		}
		sel, err := c.d.RecallTargetSelection(c.opts, source)
		if (err == nil) != (wantErr == nil) || errors.Is(err, context.Canceled) != errors.Is(wantErr, context.Canceled) ||
			errors.Is(err, labeler.ErrBudgetExhausted) != errors.Is(wantErr, labeler.ErrBudgetExhausted) {
			t.Fatalf("%s: failed with %v, reference with %v", at, err, wantErr)
		}
		if !slices.Equal(lab.ids, refLab.ids) {
			t.Fatalf("%s: %d labeler calls, reference %d, or for other records", at, len(lab.ids), len(refLab.ids))
		}
		if err != nil {
			continue
		}
		if math.Float64bits(sel.Threshold) != math.Float64bits(want.threshold) {
			t.Fatalf("%s: threshold %v (%#x), reference %v (%#x)", at,
				sel.Threshold, math.Float64bits(sel.Threshold), want.threshold, math.Float64bits(want.threshold))
		}
		if sel.OracleCalls != int64(len(want.drawn)) || sel.Degraded != want.degraded {
			t.Fatalf("%s: %d calls, degraded %v; reference %d, %v", at, sel.OracleCalls, sel.Degraded, len(want.drawn), want.degraded)
		}
		if sel.Len() != len(want.set) {
			t.Fatalf("%s: Len %d, reference %d", at, sel.Len(), len(want.set))
		}
		// An empty set is nil, and so must IDs be: the served body encodes
		// it as null.
		if got, head := sel.IDs(20), want.set[:min(20, len(want.set))]; !reflect.DeepEqual(got, head) {
			t.Fatalf("%s: IDs(20) = %v, reference head %v", at, got, head)
		}
		if got := sel.Result().Returned; !reflect.DeepEqual(got, want.set) {
			t.Fatalf("%s: listed %d records, reference %d, or others", at, len(got), len(want.set))
		}
	}
	return want, wantErr
}

// TestRecallTargetMatchesReference holds RecallTargetSelection, through
// every entry, to the naive reference over one matrix:
//   - draws: three proxies (realistic; zeros, negatives and positives mixed;
//     all zero) at five seeds, with a budget larger than the corpus, a label
//     budget that runs out mid-draw, and a cancellation that fails a draw —
//     the sample's end, the exhausting draw and the failing draw each also
//     on either side of a block boundary and on one;
//   - the returned set: no sampled positive (the −Inf fallback), a corpus of
//     one record, records drawn twice with both labels, a degraded sample,
//     scores tied exactly at the threshold, and an empty set;
//   - the threshold search: the served benchmark's seven select shapes at
//     two proxies, three seeds and three deltas; tie-heavy proxies with ±0
//     and a NaN at four seeds, targets, deltas up to 0.95 and three budgets,
//     each also degraded; and, at Delta 0.5 (z = 0), targets equal to a
//     candidate's bound, which a skip testing <= instead of < gets wrong;
//   - counting: hand-built samples settled at the thresholds a binary
//     search over sorted floats is easiest to get wrong on (±0, NaN, ±Inf,
//     ties and their neighbors), against the reference's set, and first
//     counts racing to build a fresh design's sorted copy.
func TestRecallTargetMatchesReference(t *testing.T) {
	t.Run("draws", func(t *testing.T) {
		_, _, _, truth := selectionEnv(t, 2500)
		good := goodProxy(truth, 0.15, 2)
		signed := make([]float64, len(good))
		for i, v := range good {
			signed[i] = []float64{0, -v, v, v}[i%4]
		}
		type variant struct {
			name           string
			budget         int
			labels, failAt int64
		}
		variants := []variant{{"plain", 300, 0, 0}, {"budget>n", 4000, 0, 0}, {"exhausted", 300, 120, 0}, {"canceled", 300, 0, 150}}
		for _, k := range []int{xrand.Block - 1, xrand.Block, xrand.Block + 1, 2 * xrand.Block} {
			variants = append(variants,
				variant{fmt.Sprintf("ends at draw %d", k), k, 0, 0},
				variant{fmt.Sprintf("exhausted at draw %d", k), 300, int64(k - 1), 0},
				variant{fmt.Sprintf("canceled at draw %d", k), 300, 0, int64(k)})
		}
		for name, proxy := range map[string][]float64{"good": good, "signed": signed, "zero": make([]float64, len(good))} {
			d := NewDesign(proxy)
			for _, v := range variants {
				for seed := int64(1); seed <= 5; seed++ {
					c := refCase{fmt.Sprintf("%s %s seed=%d", name, v.name, seed), d,
						Options{Budget: v.budget, Target: 0.9, Delta: 0.05, Seed: seed}, truth, v.labels, v.failAt, nil}
					want, err := c.run(t)
					switch {
					case v.failAt > 0 && !errors.Is(err, context.Canceled):
						t.Fatalf("%s: err = %v, want the cancellation", c.name, err)
					case err == nil && want.degraded != (v.labels > 0):
						t.Fatalf("%s: degraded = %v", c.name, want.degraded)
					case v.name == "budget>n" && len(want.drawn) != len(proxy):
						t.Fatalf("%s: %d draws, want the corpus size", c.name, len(want.drawn))
					}
				}
			}
		}
	})

	t.Run("set", func(t *testing.T) {
		_, _, _, truth := selectionEnv(t, 1200)
		good := goodProxy(truth, 0.15, 2)
		tied := make([]float64, len(good)) // every threshold shared by many records
		for i, p := range good {
			tied[i] = math.Round(p*4) / 4
		}
		none := make([]bool, len(truth))
		firstDrawMatches := func() func(int) bool {
			draws := map[int]int{}
			return func(id int) bool { draws[id]++; return draws[id] == 1 }
		}
		opts := func(budget int, target float64, seed int64) Options {
			return Options{Budget: budget, Target: target, Delta: 0.05, Seed: seed}
		}
		for _, tc := range []struct {
			c      refCase
			arises func(n naive) bool
		}{
			{refCase{"plain", NewDesign(good), opts(150, 0.9, 1), truth, 0, 0, nil}, nil},
			{refCase{"no sampled positive", NewDesign(good), opts(150, 0.9, 2), none, 0, 0, nil},
				func(n naive) bool { return math.IsInf(n.threshold, -1) }},
			{refCase{"every record a sampled negative", NewDesign([]float64{0.3}), opts(150, 0.9, 6), none[:1], 0, 0, nil},
				func(n naive) bool { return len(n.drawn) == 1 && n.set == nil }},
			{refCase{"drawn twice", NewDesign(good), opts(900, 0.8, 3), nil, 0, 0, firstDrawMatches},
				func(n naive) bool {
					first := map[int]bool{}
					for i, id := range n.drawn {
						if seen, ok := first[id]; ok && seen != n.labels[i] {
							return true
						}
						first[id] = n.labels[i]
					}
					return false
				}},
			{refCase{"degraded", NewDesign(good), opts(300, 0.9, 4), truth, 70, 0, nil},
				func(n naive) bool { return n.degraded && len(n.drawn) == 70 }},
			{refCase{"ties at threshold", NewDesign(tied), opts(200, 0.9, 5), truth, 0, 0, nil},
				func(n naive) bool { // records at τ: those ≥ τ less those ≥ the next float
					return len(naiveSet(tied, n.threshold, nil, nil))-len(naiveSet(tied, math.Nextafter(n.threshold, 2), nil, nil)) >= 2
				}},
		} {
			want, err := tc.c.run(t)
			if err != nil {
				t.Fatalf("%s: %v", tc.c.name, err)
			}
			if tc.arises != nil && !tc.arises(want) {
				t.Errorf("%s: the case does not arise", tc.c.name)
			}
		}
	})

	t.Run("threshold", func(t *testing.T) {
		for _, sh := range selectShapes {
			truth := taipeiTruth(t, sh.class, sh.count)
			for _, noise := range []float64{0.15, 0.4} {
				d := NewDesign(goodProxy(truth, noise, 2))
				for seed := int64(1); seed <= 3; seed++ {
					for _, delta := range []float64{0.05, 0.3, 0.7} {
						refCase{fmt.Sprintf("%s noise=%v seed=%d delta=%v", sh, noise, seed, delta), d,
							Options{Budget: sh.budget, Target: sh.recall, Delta: delta, Seed: seed}, truth, 0, 0, nil}.run(t)
					}
				}
			}
		}

		_, _, _, truth := selectionEnv(t, 3000)
		// Four distinct scores, the lowest a mix of 0 and -0, so every
		// candidate is shared by hundreds of records and most sampled
		// positives tie.
		tied := make([]float64, len(truth))
		for i, p := range goodProxy(truth, 0.3, 4) {
			tied[i] = math.Round(p * 3)
			if tied[i] == 0 && i%2 == 0 {
				tied[i] = math.Copysign(0, -1)
			}
		}
		withNaN := slices.Clone(tied)
		withNaN[17] = math.NaN()
		good := goodProxy(truth, 0.15, 2)
		designs := map[string]*Design{"tied": NewDesign(tied), "NaN": NewDesign(withNaN), "good": NewDesign(good)}
		for seed := int64(1); seed <= 4; seed++ {
			for _, target := range []float64{0.5, 0.8, 0.95, 0.99} {
				for _, delta := range []float64{0.05, 0.3, 0.7, 0.95} {
					for name, d := range designs {
						for _, budget := range []int{20, 150, 600} {
							for _, labels := range []int64{0, int64(budget / 3)} {
								c := refCase{fmt.Sprintf("%s b%d r%v delta=%v seed=%d labels=%d", name, budget, target, delta, seed, labels),
									d, Options{Budget: budget, Target: target, Delta: delta, Seed: seed}, truth, labels, 0, nil}
								if want, _ := c.run(t); want.degraded != (labels > 0) {
									t.Fatalf("%s: degraded %v", c.name, want.degraded)
								}
							}
						}
					}
				}
			}
		}

		met := 0
		for _, budget := range []int{40, 300} {
			for seed := int64(1); seed <= 3; seed++ {
				opts := Options{Budget: budget, Target: 0.5, Delta: 0.5, Seed: seed}
				probe, err := naiveRecallTarget(opts, good, func(id int) (bool, error) { return truth[id], nil })
				if err != nil {
					t.Fatal(err)
				}
				for _, b := range probe.bounds {
					if b > 0 && b < 1 {
						opts.Target = b
						refCase{fmt.Sprintf("b%d seed=%d target=bound %v", budget, seed, b), designs["good"], opts, truth, 0, 0, nil}.run(t)
						met++
					}
				}
			}
		}
		if met < 10 {
			t.Fatalf("only %d targets on a candidate's bound", met)
		}
	})

	t.Run("count", func(t *testing.T) {
		negZero, nan, inf := math.Copysign(0, -1), math.NaN(), math.Inf(1)
		grid, signed, withNaN, equal := make([]float64, 400), make([]float64, 400), make([]float64, 400), make([]float64, 400)
		for i := range grid {
			grid[i] = float64(i%9) / 8 // every score shared by ~44 records
			signed[i] = []float64{-1, negZero, 0, 0.5, -0.25, negZero}[i%6]
			withNaN[i] = float64(i%7) / 6
			if i%5 == 0 {
				withNaN[i] = nan
			}
			equal[i] = 0.5
		}
		for _, c := range []struct {
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
		} {
			d := NewDesign(c.proxy)
			for _, th := range c.thresholds {
				name := fmt.Sprintf("%s τ=%v", c.name, th)
				sel := d.selection(Options{}, th, &sample{ids: c.ids, labels: c.labels, degraded: c.degraded})
				want := naiveSet(c.proxy, th, c.ids, c.labels)
				if sel.Len() != len(want) || !reflect.DeepEqual(sel.Result().Returned, want) || sel.Degraded != c.degraded {
					t.Errorf("%s: Len %d, listed %d, degraded %v; reference %d", name, sel.Len(), len(sel.Result().Returned), sel.Degraded, len(want))
				}
			}
		}

		// The first counts over a fresh design race to build its sorted
		// copy; each must read the whole of it (run under -race).
		sel := NewDesign(grid).selection(Options{}, 0.5, &sample{ids: []int{1}, labels: []bool{true}})
		want := len(naiveSet(grid, 0.5, []int{1}, []bool{true}))
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if got := sel.Len(); got != want {
					t.Errorf("concurrent first count: Len %d, reference %d", got, want)
				}
			}()
		}
		wg.Wait()
	})
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

// knowsHalf and knowsAll say which records a tabled source peeks.
func knowsHalf(id int) bool { return id%2 == 0 }
func knowsAll(int) bool     { return true }

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
