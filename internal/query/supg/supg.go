// Package supg implements SUPG-style approximate selection with statistical
// guarantees (Kang et al., PVLDB 2020): given proxy scores and a fixed
// target-labeler budget, it returns a record set meeting a recall target
// with high probability. Importance sampling is driven by
// the proxy scores, so better scores concentrate the labeler budget near the
// decision boundary and shrink the false positive rate — the mechanism
// behind the paper's Figure 5.
package supg

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Predicate reports whether a target-labeler output matches the selection.
type Predicate func(ann dataset.Annotation) bool

// MatchSource answers a query's draws: whether each drawn record matches the
// selection — the predicate over its target-labeler output — or the error
// that kept the label from being obtained.
type MatchSource interface {
	// Peek reads ahead of the draws: for each i it sets known[i] to whether
	// record ids[i]'s match can be had without a label and, when it can,
	// match[i] to it. It must have no other effect — a query peeks at a
	// block of draws before consuming them, and an error throws the rest of
	// the block away.
	Peek(ids []int, match, known []bool)
	// Match consumes the next draw, record id, once per draw and in draw
	// order, spending one labeler invocation when it succeeds. match and
	// known are what Peek found for the draw; a match another draw learnt
	// since is the source's to find.
	Match(id int, match, known bool) (bool, error)
}

// MatchFunc is a MatchSource that knows nothing ahead: every draw is one call
// of the function.
type MatchFunc func(id int) (bool, error)

// Peek knows no match.
func (f MatchFunc) Peek(_ []int, _, known []bool) { clear(known) }

// Match calls f.
func (f MatchFunc) Match(id int, _, _ bool) (bool, error) { return f(id) }

// labeled is the MatchSource of "label the record, then test it": what the
// annotation-taking entry points run their queries over.
func labeled(pred Predicate, lab labeler.Labeler) MatchSource {
	return MatchFunc(func(id int) (bool, error) {
		ann, err := lab.Label(id)
		if err != nil {
			return false, err
		}
		return pred(ann), nil
	})
}

// Options configures a SUPG query.
type Options struct {
	// Budget is the fixed number of target-labeler invocations.
	Budget int
	// Target is the recall target in (0,1).
	Target float64
	// Delta is the failure probability (paper: 0.05).
	Delta float64
	// Seed makes sampling deterministic.
	Seed int64
	// Telemetry, when non-nil, counts query runs and their labeler spend
	// (tasti_query_runs_total / tasti_query_label_calls_total with
	// type="select"; the spend is added once, when the run ends).
	// Record-only: the sampling design is unaffected.
	Telemetry *telemetry.Registry
	// Parallelism is unused: the returned set is counted by binary search and
	// listed in a serial pass, which measured faster than any worker grid at
	// the corpus sizes served. The field remains for the callers that still
	// set it.
	Parallelism int
}

// DefaultOptions mirrors the paper's SUPG setup: recall target 0.9 with 95%
// confidence.
func DefaultOptions(budget int, seed int64) Options {
	return Options{Budget: budget, Target: 0.9, Delta: 0.05, Seed: seed}
}

// Result is the output of a SUPG query.
type Result struct {
	// Returned holds the IDs of the selected records.
	Returned []int
	// OracleCalls is the number of target-labeler invocations consumed
	// (== Budget unless the dataset is smaller).
	OracleCalls int64
	// Threshold is the proxy-score cutoff the algorithm settled on.
	Threshold float64
	// Degraded marks a query whose labeler budget was exhausted mid-draw:
	// the guarantee machinery ran over the partial sample, whose larger
	// standard errors push the threshold conservatively — a smaller, safer
	// returned set rather than a failed query.
	Degraded bool
}

// checkCorpus rejects a corpus a Design cannot be built over.
func checkCorpus(n int, proxy []float64) error {
	if n <= 0 {
		return errors.New("supg: empty dataset")
	}
	if len(proxy) != n {
		return fmt.Errorf("supg: %d proxy scores for %d records", len(proxy), n)
	}
	return nil
}

func (o Options) validate() error {
	if o.Budget <= 0 {
		return fmt.Errorf("supg: budget must be positive, got %d", o.Budget)
	}
	if o.Target <= 0 || o.Target >= 1 {
		return fmt.Errorf("supg: target must be in (0,1), got %v", o.Target)
	}
	if o.Delta <= 0 || o.Delta >= 1 {
		return fmt.Errorf("supg: delta must be in (0,1), got %v", o.Delta)
	}
	return nil
}

// Design is SUPG's sampling design over one proxy vector: the total of the
// defensive sqrt-proxy weights and the prefix sums each draw searches (a
// record's own weight is recomputed from its proxy score when a draw needs
// its probability, the same float either way), plus — built by the first
// Selection.Len, or merged forward from a predecessor's by Successor — a
// sorted copy of the scores that counts a returned set by binary search. It depends on nothing but the proxy scores, so one Design
// serves every query over that vector — any budget, target, or seed — and is
// read-only once built: concurrent queries may share it. The proxy slice is
// retained, not copied, and must not change while the Design is in use.
//
// Its query, RecallTargetSelection, reads a per-record MatchSource — for a
// caller that can answer some records without materialising an annotation.
// The one-shot RecallTarget adapts a predicate and a labeler onto one and
// lists the returned set whole; draws, threshold and returned set are the
// same either way.
type Design struct {
	proxy []float64
	total float64
	cdf   *xrand.CDF
	// sorted is proxy in ascending order, NaNs first: published by Successor
	// or by the first sortedProxy, nil until then.
	sortOnce sync.Once
	sorted   atomic.Pointer[[]float64]
}

// weight is one record's sampling weight. Defensive importance sampling: the
// additive floor mixes in a uniform component so low-score records stay
// reachable and the total-positive estimate in the denominator is not starved
// of tail mass.
func weight(proxy float64) float64 {
	if proxy < 0 {
		proxy = 0
	}
	return math.Sqrt(proxy) + 0.05
}

// NewDesign builds the design in three O(n) passes — the weights, their
// prefix sums in the same vector, and the CDF's guide table. It panics on an
// empty proxy vector; RecallTarget rejects that case as an error first.
func NewDesign(proxy []float64) *Design { return (*Design)(nil).Successor(proxy, nil) }

// Successor returns NewDesign(proxy) for a proxy vector that equals d's
// except at the ascending indices changed lists and past d's length, where
// it may differ or be new; a nil d has no indices in common with it. It
// keeps d's prefix sums up to the first index that may differ and folds the
// rest, builds a new guide table, and — when d's sorted copy exists — merges
// the old scores of the changed indices out of it and their new scores and
// the appended ones in, instead of sorting the whole vector. The result
// draws, weighs and counts bit for bit as NewDesign(proxy) does. d is only
// read, and may be in use meanwhile.
func (d *Design) Successor(proxy []float64, changed []int) *Design {
	// The total folds every weight and the prefix sums only the positive
	// ones. Weights are at least 0.05 except a NaN proxy's, so over a prefix
	// without one — which a total that is not NaN proves — both are the same
	// additions in the same order.
	from := 0
	if d != nil && !math.IsNaN(d.total) {
		from = len(d.proxy)
		if len(changed) > 0 {
			from = changed[0]
		}
	}
	weights := make([]float64, len(proxy))
	total := 0.0
	var prev *xrand.CDF
	if from > 0 {
		prev, total = d.cdf, d.cdf.PartialSum(from-1)
	}
	for i := from; i < len(proxy); i++ {
		weights[i] = weight(proxy[i])
		total += weights[i]
	}
	next := &Design{proxy: proxy, total: total, cdf: xrand.ExtendCDF(prev, weights, from)}
	if d == nil {
		return next
	}
	if sorted := d.sorted.Load(); sorted != nil {
		out := make([]float64, len(changed))
		in := make([]float64, 0, len(changed)+len(proxy)-len(d.proxy))
		for i, id := range changed {
			out[i] = d.proxy[id]
			in = append(in, proxy[id])
		}
		in = append(in, proxy[len(d.proxy):]...)
		slices.Sort(out)
		slices.Sort(in)
		merged := mergeSorted(*sorted, out, in)
		next.sorted.Store(&merged)
	}
	return next
}

// mergeSorted returns old, sorted as slices.Sort sorts, without the values of
// out and with the values of in, both sorted the same way and out a
// sub-multiset of old. It copies old a run at a time between the few places
// a binary search finds for out's and in's values. Values are matched and
// ordered by cmp.Compare, so the result is slices.Sort of the new multiset
// up to the order of the values it calls equal — a -0 beside a 0, NaN
// payloads — which no count by sort.SearchFloat64s can tell apart.
func mergeSorted(old, out, in []float64) []float64 {
	merged := make([]float64, 0, len(old)-len(out)+len(in))
	for len(out) > 0 || len(in) > 0 {
		// The first of old at or past out[0] is an equal one to drop; in[0]
		// goes before the first of old above it.
		drop, put := len(old), len(old)
		if len(out) > 0 {
			drop = sort.Search(len(old), func(j int) bool { return cmp.Compare(old[j], out[0]) >= 0 })
		}
		if len(in) > 0 {
			put = sort.Search(len(old), func(j int) bool { return cmp.Less(in[0], old[j]) })
		}
		if drop < put {
			merged, old, out = append(merged, old[:drop]...), old[drop+1:], out[1:]
		} else {
			merged, old, in = append(append(merged, old[:put]...), in[0]), old[put:], in[1:]
		}
	}
	return append(merged, old...)
}

// Draw returns one record ID with probability Prob(id), consuming exactly
// one r.Float64(): a guide-table lookup and a search of the few prefix sums
// it leaves, O(log n) at worst, whatever the corpus size.
func (d *Design) Draw(r *rand.Rand) int { return d.cdf.Draw(r) }

// Prob returns the probability that one Draw yields record id.
func (d *Design) Prob(id int) float64 { return weight(d.proxy[id]) / d.total }

// RecallTarget runs the recall-target SUPG query: it returns a set that
// contains at least a Target fraction of all matching records with
// probability 1-Delta, spending exactly the labeler budget. It is the
// one-shot form of NewDesign(proxy).RecallTargetSelection.
func RecallTarget(opts Options, n int, proxy []float64, pred Predicate, lab labeler.Labeler) (Result, error) {
	if err := checkCorpus(n, proxy); err != nil {
		return Result{}, err
	}
	sel, err := NewDesign(proxy).RecallTargetSelection(opts, labeled(pred, lab))
	if err != nil {
		return Result{}, err
	}
	return sel.Result(), nil
}

// RecallTargetSelection runs the recall-target query over the design's proxy
// vector, with the returned set left as its membership rule: a caller that
// reports the set's size and a few of its IDs reads them through Len and IDs
// without listing the set.
func (d *Design) RecallTargetSelection(opts Options, match MatchSource) (Selection, error) {
	if err := opts.validate(); err != nil {
		return Selection{}, err
	}
	proxy := d.proxy
	s, err := d.drawSample(opts, match)
	if err != nil {
		return Selection{}, err
	}
	defer s.release()

	// Importance-weighted recall estimation. Thresholds are the distinct
	// proxy values of sampled positives, scanned from high (smallest
	// returned set) to low; for each, the recall of {proxy >= tau} is
	// estimated as the weighted positive mass above tau over the total
	// weighted positive mass, with a delta-method standard error. The
	// highest threshold whose lower confidence bound clears the target wins
	// — the SUPG guarantee structure.
	totalW := 0.0
	positives := s.positives // empty, with room for every draw
	for i := range s.ids {
		if s.labels[i] {
			totalW += s.weights[i]
			positives = append(positives, posSample{score: proxy[s.ids[i]], weight: s.weights[i]})
		}
	}

	threshold := math.Inf(-1) // fallback: return everything
	if totalW > 0 {
		slices.SortFunc(positives, byScoreDescending)
		z := normalQuantile(1 - opts.Delta)
		// The continuity correction guards the discrete positive sample
		// against the normal approximation's undercoverage at small budgets.
		correction := 0.5 / float64(len(positives))
		acc := 0.0
		for i, p := range positives {
			acc += p.weight
			// Candidate thresholds sit at distinct score boundaries.
			if i+1 < len(positives) && positives[i+1].score == p.score {
				continue
			}
			recall := acc / totalW
			// With z >= 0 (Delta <= 0.5), z*se is not negative, so the
			// rounded bound below is at most recall - correction: a
			// candidate that falls short of the target without its standard
			// error cannot clear it with one, and skips the O(P) variance
			// pass. Every other candidate is tested exactly as before.
			if z >= 0 && recall-correction < opts.Target {
				continue
			}
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

	return d.selection(opts, threshold, s), nil
}

// byScoreDescending orders sampled positives by descending score. It is
// sort.Slice's comparator in slices.SortFunc's form: the two run one pdqsort
// with the same comparisons, so tied scores — and the sums the threshold
// search folds over them — fall in the same order either way.
func byScoreDescending(a, b posSample) int {
	switch {
	case a.score > b.score:
		return -1
	case a.score < b.score:
		return 1
	}
	return 0
}

// sample is the labeled importance sample, and the scratch the rest of one
// query works in. Queries reuse one another's samples
// through samplePool — a query sizes every vector once, to its budget or the
// corpus, and a sample that already has the room allocates nothing — so
// nothing in a Result may alias one: release hands it to the next query.
type sample struct {
	ids     []int
	labels  []bool
	weights []float64 // importance weights 1/(B*q_i)
	// degraded marks a draw cut short by label-budget exhaustion; the
	// weights were computed against the calls actually made, so the
	// estimators below stay consistent over the partial sample.
	degraded bool

	qs        []float64   // draw probabilities, until the weights are final
	positives []posSample // RecallTarget's threshold candidates
	keys      []uint64    // selection's draws keyed by record, then draw
	radix     []uint64    // the other buffer of the keys' radix sort
	ahead     drawBlock
}

// drawBlock is the next block of draws, taken ahead of consuming them: their
// record IDs, their draw probabilities and what the match source's Peek found
// for them.
type drawBlock struct {
	ids   [xrand.Block]int
	qs    [xrand.Block]float64
	match [xrand.Block]bool
	known [xrand.Block]bool
}

// posSample is one sampled positive: its proxy score and importance weight.
type posSample struct {
	score  float64
	weight float64
}

var samplePool = sync.Pool{New: func() any { return new(sample) }}

func (s *sample) release() { samplePool.Put(s) }

// sized returns v emptied, with room for n elements.
func sized[T any](v []T, n int) []T {
	if cap(v) < n {
		return make([]T, 0, n)
	}
	return v[:0]
}

// drawSample draws Budget records i.i.d. from the design — probability
// proportional to sqrt(proxy) plus the defensive floor — and asks match for
// each. A label budget exhausted mid-draw truncates the sample instead of
// failing the query — the importance weights are normalized by the draws
// actually made, so the downstream guarantee machinery runs unchanged, just
// with wider error bars. The caller releases the sample when its Result is
// built.
//
// The draws come a block at a time (xrand.CDF.DrawBlock, the generator's
// order), their probabilities and peeked matches gathered in passes of
// independent reads; they are consumed one at a time in that order, so every
// Match call, error and truncation falls on the draw it falls on when each
// record is drawn as it is consumed.
func (d *Design) drawSample(opts Options, match MatchSource) (*sample, error) {
	r := xrand.New(opts.Seed)
	budget := opts.Budget
	if n := len(d.proxy); budget > n {
		budget = n
	}
	s := samplePool.Get().(*sample)
	s.degraded = false
	s.ids, s.labels = sized(s.ids, budget), sized(s.labels, budget)
	s.weights, s.qs = sized(s.weights, budget), sized(s.qs, budget)
	s.positives = sized(s.positives, budget)
	opts.Telemetry.Counter(`tasti_query_runs_total{type="select"}`).Inc()
	mCalls := opts.Telemetry.Counter(`tasti_query_label_calls_total{type="select"}`)
	var calls int64
	// Booked once, on whatever path the run ends: one shared atomic add per
	// query instead of one per draw.
	defer func() { mCalls.Add(calls) }()
	b := &s.ahead
draws:
	for len(s.ids) < budget {
		k := min(budget-len(s.ids), len(b.ids))
		d.cdf.DrawBlock(r, b.ids[:k])
		for i, id := range b.ids[:k] {
			b.qs[i] = d.Prob(id)
		}
		match.Peek(b.ids[:k], b.match[:k], b.known[:k])
		for i, id := range b.ids[:k] {
			positive, err := match.Match(id, b.match[i], b.known[i])
			if err != nil {
				if errors.Is(err, labeler.ErrBudgetExhausted) && len(s.ids) > 0 {
					s.degraded = true
					break draws
				}
				s.release()
				return nil, fmt.Errorf("supg: labeling record %d: %w", id, err)
			}
			calls++
			s.ids = append(s.ids, id)
			s.labels = append(s.labels, positive)
			s.qs = append(s.qs, b.qs[i])
		}
	}
	// Importance weights 1/(B*q_i), with B the draws actually made: equal to
	// the configured budget on the undegraded path (bitwise identical to
	// weighting inside the loop), and the truncated count when exhaustion
	// cut the draw short — keeping each estimator's weighted sums consistent
	// with the sample they run over.
	actual := len(s.ids)
	for _, q := range s.qs {
		s.weights = append(s.weights, 1/(float64(actual)*q))
	}
	// Truncated importance sampling: a single low-probability draw can
	// otherwise carry an enormous weight, exploding both the estimates and
	// their variance terms (Ionides 2008). Clip at a multiple of the mean
	// weight.
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

// Selection is a settled query: its accounting, and the returned set as its
// membership rule rather than its members. A record is in the set when its
// proxy score is at or above Threshold, except a sampled record, which takes
// the label of its last draw — sampled positives are known matches and free to
// include, sampled negatives known non-matches and free to exclude. Len and
// IDs read the rule; past the Design's one sorted copy, neither writes or
// allocates anything the size of the corpus, so a caller that wants the size
// and a few IDs pays a binary search and a short scan for them. The Design's
// proxy vector must not change while a Selection over it is read. The zero
// Selection, which a failed query returns, has no set: Len, IDs and Result
// panic on it.
type Selection struct {
	// OracleCalls, Threshold and Degraded are the Result fields of the same
	// names.
	OracleCalls int64
	Threshold   float64
	Degraded    bool

	d         *Design
	overrides []override // sampled records by ascending ID, each once
}

// override is one sampled record and the label of its last draw. The ID
// is the draw key's high 32 bits, which hold every record ID.
type override struct {
	id       uint32
	positive bool
}

// selection settles a query at threshold over its sample and books a
// degraded one: O(budget), whatever the corpus size. Each draw becomes one
// integer key — record ID in the high 32 bits, draw index in the low — so
// sorting the keys orders the draws by record and, within a record, by draw,
// and the last key of each record is its last draw.
func (d *Design) selection(opts Options, threshold float64, s *sample) Selection {
	if s.degraded {
		opts.Telemetry.Counter(`tasti_query_degraded_total{type="select"}`).Inc()
	}
	keys := sized(s.keys, len(s.ids))
	for i, id := range s.ids {
		keys = append(keys, uint64(id)<<32|uint64(i))
	}
	keys, s.radix = sortDrawKeys(keys, sized(s.radix, len(keys))[:len(keys)])
	s.keys = keys
	ov := make([]override, 0, len(keys))
	for j, k := range keys {
		if j+1 < len(keys) && keys[j+1]>>32 == k>>32 {
			continue
		}
		ov = append(ov, override{id: uint32(k >> 32), positive: s.labels[uint32(k)]})
	}
	return Selection{
		OracleCalls: int64(len(s.ids)), Threshold: threshold, Degraded: s.degraded,
		d: d, overrides: ov,
	}
}

// sortDrawKeys sorts draw keys that come in draw order — ascending in their
// low 32 bits — into ascending order: a stable LSD radix sort on the record
// ID's bytes, one pass per byte up to the largest ID's highest, each from
// keys into spare (as long as keys) and back. A stable sort by ID of keys
// already in draw order sorts them whole, so the result is slices.Sort's.
// It returns the sorted keys and the other buffer, each one of the two it
// was given.
func sortDrawKeys(keys, spare []uint64) (sorted, other []uint64) {
	var ids uint64
	for _, k := range keys {
		ids |= k >> 32
	}
	for shift := 32; ids != 0; shift, ids = shift+8, ids>>8 {
		var at [256]int
		for _, k := range keys {
			at[byte(k>>shift)]++
		}
		next := 0
		for b, n := range at {
			at[b], next = next, next+n
		}
		for _, k := range keys {
			b := byte(k >> shift)
			spare[at[b]] = k
			at[b]++
		}
		keys, spare = spare, keys
	}
	return keys, spare
}

// sortedProxy returns the proxy scores in ascending order, NaNs first: the
// copy Successor merged, or else one sorted on the first call — O(n log n)
// and 8 bytes per record, once per Design.
func (d *Design) sortedProxy() []float64 {
	if sorted := d.sorted.Load(); sorted != nil {
		return *sorted
	}
	d.sortOnce.Do(func() {
		sorted := slices.Clone(d.proxy)
		slices.Sort(sorted)
		d.sorted.Store(&sorted)
	})
	return *d.sorted.Load()
}

// Len returns the number of records in the set: a binary search of the sorted
// scores counts those at or above the threshold — a NaN sorts first and is
// below every threshold, as p >= t says — and each sampled record then moves
// the count by its label's disagreement with its score.
func (s Selection) Len() int {
	t, proxy := s.Threshold, s.d.proxy
	sorted := s.d.sortedProxy()
	count := len(sorted) - sort.SearchFloat64s(sorted, t)
	for _, o := range s.overrides {
		count += b2i(o.positive) - b2i(proxy[o.id] >= t)
	}
	return count
}

// IDs returns the set's first n members in ascending ID order — nil when
// there are none — reading the corpus only as far as the last one returned.
func (s Selection) IDs(n int) []int {
	var out []int
	proxy, ov := s.d.proxy, s.overrides
	for id := 0; id < len(proxy) && len(out) < n; id++ {
		in := proxy[id] >= s.Threshold
		if len(ov) > 0 && int(ov[0].id) == id {
			in, ov = ov[0].positive, ov[1:]
		}
		if in {
			if len(out) == cap(out) {
				out = append(make([]int, 0, min(n, max(2*cap(out), idsRoom))), out...)
			}
			out = append(out, id)
		}
	}
	return out
}

// idsRoom is the most room IDs reserves up front; a longer listing doubles
// its room as it fills, so listing a large set allocates about twice the set
// where append's gentler growth past 256 entries would allocate about five
// times it.
const idsRoom = 64

// Result lists the whole set into a Result: IDs run to the end. It never
// calls Len, so a one-shot query never sorts its scores.
func (s Selection) Result() Result {
	return Result{Returned: s.IDs(len(s.d.proxy)), OracleCalls: s.OracleCalls, Threshold: s.Threshold, Degraded: s.Degraded}
}

// b2i is 1 for true and 0 for false; the compiler turns it into a flag read,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// normalQuantile returns the standard normal quantile via the
// Beasley-Springer-Moro rational approximation, accurate to ~1e-7 over
// (0,1).
func normalQuantile(p float64) float64 {
	if p <= 0 || p >= 1 {
		panic(fmt.Sprintf("supg: quantile probability %v out of (0,1)", p))
	}
	a := []float64{-3.969683028665376e+01, 2.209460984245205e+02, -2.759285104469687e+02,
		1.383577518672690e+02, -3.066479806614716e+01, 2.506628277459239e+00}
	b := []float64{-5.447609879822406e+01, 1.615858368580409e+02, -1.556989798598866e+02,
		6.680131188771972e+01, -1.328068155288572e+01}
	c := []float64{-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e+00,
		-2.549732539343734e+00, 4.374664141464968e+00, 2.938163982698783e+00}
	d := []float64{7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e+00,
		3.754408661907416e+00}
	const pLow, pHigh = 0.02425, 1 - 0.02425
	switch {
	case p < pLow:
		q := math.Sqrt(-2 * math.Log(p))
		return (((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	case p > pHigh:
		q := math.Sqrt(-2 * math.Log(1-p))
		return -(((((c[0]*q+c[1])*q+c[2])*q+c[3])*q+c[4])*q + c[5]) /
			((((d[0]*q+d[1])*q+d[2])*q+d[3])*q + 1)
	default:
		q := p - 0.5
		t := q * q
		return (((((a[0]*t+a[1])*t+a[2])*t+a[3])*t+a[4])*t + a[5]) * q /
			(((((b[0]*t+b[1])*t+b[2])*t+b[3])*t+b[4])*t + 1)
	}
}
