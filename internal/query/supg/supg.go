// Package supg implements SUPG-style approximate selection with statistical
// guarantees (Kang et al., PVLDB 2020): given proxy scores and a fixed
// target-labeler budget, it returns a record set meeting a recall (or
// precision) target with high probability. Importance sampling is driven by
// the proxy scores, so better scores concentrate the labeler budget near the
// decision boundary and shrink the false positive rate — the mechanism
// behind the paper's Figure 5.
package supg

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/parallel"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// Predicate reports whether a target-labeler output matches the selection.
type Predicate func(ann dataset.Annotation) bool

// Options configures a SUPG query.
type Options struct {
	// Budget is the fixed number of target-labeler invocations.
	Budget int
	// Target is the recall (or precision) target in (0,1).
	Target float64
	// Delta is the failure probability (paper: 0.05).
	Delta float64
	// Seed makes sampling deterministic.
	Seed int64
	// Telemetry, when non-nil, counts query runs and per-sample labeler
	// spend (tasti_query_runs_total / tasti_query_label_calls_total with
	// type="select"). Record-only: the sampling design is unaffected.
	Telemetry *telemetry.Registry
	// Parallelism bounds the workers used to assemble the returned set over
	// the full corpus (<= 0 uses all CPUs). The sampling design, threshold
	// search, and returned set are identical at every worker count: only the
	// embarrassingly parallel per-record threshold test is sharded.
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

// Design is SUPG's sampling design over one proxy vector: the defensive
// sqrt-proxy weights, their total, and the prefix sums each draw searches.
// It depends on nothing but the proxy scores, so one Design serves every
// query over that vector — any budget, target, or seed — and is read-only
// once built: concurrent queries may share it. The proxy slice is retained,
// not copied, and must not change while the Design is in use.
type Design struct {
	proxy   []float64
	weights []float64
	total   float64
	cdf     *xrand.CDF
}

// NewDesign builds the design in two O(n) passes — the weights and their
// prefix sums. It panics on an empty proxy vector; RecallTarget and
// PrecisionTarget reject that case as an error first.
func NewDesign(proxy []float64) *Design {
	weights := make([]float64, len(proxy))
	total := 0.0
	for i, p := range proxy {
		if p < 0 {
			p = 0
		}
		// Defensive importance sampling: the additive floor mixes in a
		// uniform component so low-score records stay reachable and the
		// total-positive estimate in the denominator is not starved of
		// tail mass.
		weights[i] = math.Sqrt(p) + 0.05
		total += weights[i]
	}
	return &Design{proxy: proxy, weights: weights, total: total, cdf: xrand.NewCDF(weights)}
}

// Draw returns one record ID with probability Prob(id), consuming exactly
// one r.Float64(): O(log n), whatever the corpus size.
func (d *Design) Draw(r *rand.Rand) int { return d.cdf.Draw(r) }

// Prob returns the probability that one Draw yields record id.
func (d *Design) Prob(id int) float64 { return d.weights[id] / d.total }

// RecallTarget runs the recall-target SUPG query: it returns a set that
// contains at least a Target fraction of all matching records with
// probability 1-Delta, spending exactly the labeler budget. It is the
// one-shot form of NewDesign(proxy).RecallTarget.
func RecallTarget(opts Options, n int, proxy []float64, pred Predicate, lab labeler.Labeler) (Result, error) {
	if err := checkCorpus(n, proxy); err != nil {
		return Result{}, err
	}
	return NewDesign(proxy).RecallTarget(opts, pred, lab)
}

// RecallTarget runs the recall-target query over the design's proxy vector.
func (d *Design) RecallTarget(opts Options, pred Predicate, lab labeler.Labeler) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	n, proxy := len(d.proxy), d.proxy
	s, err := d.drawSample(opts, pred, lab)
	if err != nil {
		return Result{}, err
	}

	// Importance-weighted recall estimation. Thresholds are the distinct
	// proxy values of sampled positives, scanned from high (smallest
	// returned set) to low; for each, the recall of {proxy >= tau} is
	// estimated as the weighted positive mass above tau over the total
	// weighted positive mass, with a delta-method standard error. The
	// highest threshold whose lower confidence bound clears the target wins
	// — the SUPG guarantee structure.
	totalW := 0.0
	type posSample struct {
		score  float64
		weight float64
	}
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

	returned := assemble(opts, n, proxy, threshold, s)
	if s.degraded {
		opts.Telemetry.Counter(`tasti_query_degraded_total{type="select"}`).Inc()
	}
	return Result{Returned: returned, OracleCalls: int64(len(s.ids)), Threshold: threshold, Degraded: s.degraded}, nil
}

// PrecisionTarget runs the precision-target SUPG variant: the returned set
// contains at least a Target fraction of true matches, maximizing set size
// subject to that, with probability 1-Delta. It is the one-shot form of
// NewDesign(proxy).PrecisionTarget.
func PrecisionTarget(opts Options, n int, proxy []float64, pred Predicate, lab labeler.Labeler) (Result, error) {
	if err := checkCorpus(n, proxy); err != nil {
		return Result{}, err
	}
	return NewDesign(proxy).PrecisionTarget(opts, pred, lab)
}

// PrecisionTarget runs the precision-target query over the design's proxy
// vector.
func (d *Design) PrecisionTarget(opts Options, pred Predicate, lab labeler.Labeler) (Result, error) {
	if err := opts.validate(); err != nil {
		return Result{}, err
	}
	n, proxy := len(d.proxy), d.proxy
	s, err := d.drawSample(opts, pred, lab)
	if err != nil {
		return Result{}, err
	}

	// Scan candidate thresholds from high to low; the precision of
	// {proxy >= tau} is estimated by the importance-weighted positive
	// fraction among sampled records above tau, with a delta-method
	// standard error (mirroring the recall side). Keep the lowest threshold
	// whose lower confidence bound still clears the target, maximizing the
	// returned set under the guarantee.
	order := make([]int, len(s.ids))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return proxy[s.ids[order[a]]] > proxy[s.ids[order[b]]] })

	threshold := math.Inf(1) // fallback: return only sampled positives
	z := normalQuantile(1 - opts.Delta)
	posW, allW := 0.0, 0.0
	for idx, i := range order {
		allW += s.weights[i]
		if s.labels[i] {
			posW += s.weights[i]
		}
		// Candidate thresholds sit at distinct score boundaries.
		if idx+1 < len(order) && proxy[s.ids[order[idx+1]]] == proxy[s.ids[i]] {
			continue
		}
		if allW == 0 {
			continue
		}
		precision := posW / allW
		varSum := 0.0
		for _, j := range order[:idx+1] {
			ind := 0.0
			if s.labels[j] {
				ind = 1
			}
			d := ind - precision
			varSum += s.weights[j] * s.weights[j] * d * d
		}
		se := math.Sqrt(varSum) / allW
		correction := 0.5 / float64(idx+1)
		if precision-z*se-correction >= opts.Target {
			threshold = proxy[s.ids[i]]
		}
	}

	returned := assemble(opts, n, proxy, threshold, s)
	if s.degraded {
		opts.Telemetry.Counter(`tasti_query_degraded_total{type="select"}`).Inc()
	}
	return Result{Returned: returned, OracleCalls: int64(len(s.ids)), Threshold: threshold, Degraded: s.degraded}, nil
}

// sample is the labeled importance sample shared by both targets.
type sample struct {
	ids     []int
	labels  []bool
	weights []float64 // importance weights 1/(B*q_i)
	// degraded marks a draw cut short by label-budget exhaustion; the
	// weights were computed against the calls actually made, so the
	// estimators below stay consistent over the partial sample.
	degraded bool
}

// drawSample draws Budget records i.i.d. from the design — probability
// proportional to sqrt(proxy) plus the defensive floor — and labels them. A
// label budget exhausted mid-draw truncates the sample instead of failing
// the query — the importance weights are normalized by the draws actually
// made, so the downstream guarantee machinery runs unchanged, just with
// wider error bars.
func (d *Design) drawSample(opts Options, pred Predicate, lab labeler.Labeler) (*sample, error) {
	r := xrand.New(opts.Seed)
	budget := opts.Budget
	if n := len(d.proxy); budget > n {
		budget = n
	}
	s := &sample{
		ids:     make([]int, 0, budget),
		labels:  make([]bool, 0, budget),
		weights: make([]float64, 0, budget),
	}
	qs := make([]float64, 0, budget)
	opts.Telemetry.Counter(`tasti_query_runs_total{type="select"}`).Inc()
	mCalls := opts.Telemetry.Counter(`tasti_query_label_calls_total{type="select"}`)
	for len(s.ids) < budget {
		id := d.Draw(r)
		ann, err := lab.Label(id)
		if err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(s.ids) > 0 {
				s.degraded = true
				break
			}
			return nil, fmt.Errorf("supg: labeling record %d: %w", id, err)
		}
		mCalls.Inc()
		s.ids = append(s.ids, id)
		s.labels = append(s.labels, pred(ann))
		qs = append(qs, d.Prob(id))
	}
	// Importance weights 1/(B*q_i), with B the draws actually made: equal to
	// the configured budget on the undegraded path (bitwise identical to
	// weighting inside the loop), and the truncated count when exhaustion
	// cut the draw short — keeping each estimator's weighted sums consistent
	// with the sample they run over.
	actual := len(s.ids)
	for _, q := range qs {
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

// assemble builds the returned set: every record at or above the threshold
// plus all sampled positives (which are known matches and free to include).
// The threshold test writes disjoint per-record cells, so it shards across
// Options.Parallelism workers; the sample overrides and the ascending-ID
// collect stay serial, making the output invariant in worker count.
func assemble(opts Options, n int, proxy []float64, threshold float64, s *sample) []int {
	include := make([]bool, n)
	parallel.ForChunks(opts.Parallelism, n, func(_ int, sp parallel.Span) {
		for i := sp.Lo; i < sp.Hi; i++ {
			if proxy[i] >= threshold {
				include[i] = true
			}
		}
	})
	for i, id := range s.ids {
		if s.labels[i] {
			include[id] = true
		} else {
			// Sampled negatives are known non-matches; excluding them is
			// free precision.
			include[id] = false
		}
	}
	var out []int
	for i, ok := range include {
		if ok {
			out = append(out, i)
		}
	}
	return out
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
