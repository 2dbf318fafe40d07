// Package aggregation implements BlazeIt-style approximate aggregation: an
// empirical-Bernstein stopping (EBS) sampler that uses proxy scores as a
// control variate. Better-correlated proxy scores shrink the estimator
// variance, and the adaptive stopping rule then needs fewer target-labeler
// invocations — the mechanism behind the paper's Figure 4.
package aggregation

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/stats"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// ScoreFunc maps a target-labeler output to the numeric quantity being
// aggregated.
type ScoreFunc func(ann dataset.Annotation) float64

// Options configures the EBS estimator.
type Options struct {
	// ErrTarget is the absolute error target on the mean.
	ErrTarget float64
	// Delta is the failure probability (paper: 0.05 for 95% confidence).
	Delta float64
	// MinSamples is the warm-up sample count before the stopping rule and
	// control-variate coefficient kick in.
	MinSamples int
	// MaxSamples caps target-labeler invocations (0 means the dataset
	// size).
	MaxSamples int
	// Seed makes sampling deterministic.
	Seed int64
	// Telemetry, when non-nil, counts query runs and per-sample labeler
	// spend (tasti_query_runs_total / tasti_query_label_calls_total with
	// type="aggregate") and observes the final sample size. Record-only:
	// sampling order and stopping are unaffected.
	Telemetry *telemetry.Registry
}

// DefaultOptions mirrors the paper's aggregation setup: error 0.01 with 95%
// success probability.
func DefaultOptions(seed int64) Options {
	return Options{ErrTarget: 0.01, Delta: 0.05, MinSamples: 100, Seed: seed}
}

// Result is the estimator output.
type Result struct {
	// Estimate is the estimated mean of the score over the dataset.
	Estimate float64
	// LabelerCalls is the number of target-labeler invocations consumed.
	LabelerCalls int64
	// HalfWidth is the final empirical-Bernstein confidence radius.
	HalfWidth float64
	// ControlVariateCoeff is the fitted control-variate coefficient (0 when
	// running without a proxy).
	ControlVariateCoeff float64
	// Degraded marks an estimate cut short by label-budget exhaustion: the
	// sampler stopped before the error target was met, so HalfWidth is wider
	// than requested — a partial answer with honest (widened) confidence,
	// not a failure. The estimate is still unbiased over the samples drawn.
	Degraded bool
}

// ValueSource returns the aggregated quantity of one record — the score of
// its target-labeler output — or the error that kept the label from being
// obtained. The sampler calls it once per draw, in draw order, and spends one
// labeler invocation per successful call.
type ValueSource func(id int) (float64, error)

// Estimate runs the EBS sampler over a dataset of n records. proxy supplies
// per-record proxy scores used as a control variate; pass nil to run without
// a proxy (uniform sampling). score maps labeler output to the aggregated
// quantity. It is EstimateValues over "label the record, then score it", with
// the proxy mean folded here.
//
// The control variate has known mean: the proxy average over the whole
// dataset is free to compute. The mean is a serial left fold over the full
// gathered vector — floating-point addition is not associative, so combining
// per-shard partial means would change bits. Sharded serving therefore
// scatters the propagation and gathers the proxy vector before this estimator
// runs (see internal/shard and docs/SHARDING.md).
func Estimate(opts Options, n int, proxy []float64, score ScoreFunc, lab labeler.Labeler) (Result, error) {
	proxyMean := 0.0
	if proxy != nil {
		proxyMean = stats.Mean(proxy)
	}
	return EstimateValues(opts, n, proxy, proxyMean, func(id int) (float64, error) {
		ann, err := lab.Label(id)
		if err != nil {
			return 0, err
		}
		return score(ann), nil
	})
}

// sampleBuf holds one run's sample vectors between runs, so a run appends
// into the capacity the previous one grew instead of doubling its way up
// again. Result carries scalars only; nothing outlives the run that filled it.
type sampleBuf struct{ fs, ps []float64 }

var sampleBufs = sync.Pool{New: func() any { return new(sampleBuf) }}

// EstimateValues is the sampler itself: Estimate with the labeler and the
// score function folded into one per-record value source, for a caller that
// can answer some records' values without materialising an annotation (a
// served request reading a proxy column's exact scores). proxyMean must be
// stats.Mean(proxy), 0 when proxy is nil — a constant of the vector, which a
// caller that keeps the vector keeps beside it. Draw order, stopping and the
// result are those of Estimate over the same values.
func EstimateValues(opts Options, n int, proxy []float64, proxyMean float64, value ValueSource) (Result, error) {
	if n <= 0 {
		return Result{}, errors.New("aggregation: empty dataset")
	}
	if proxy != nil && len(proxy) != n {
		return Result{}, fmt.Errorf("aggregation: %d proxy scores for %d records", len(proxy), n)
	}
	if opts.ErrTarget <= 0 || opts.Delta <= 0 || opts.Delta >= 1 {
		return Result{}, fmt.Errorf("aggregation: invalid ErrTarget=%v Delta=%v", opts.ErrTarget, opts.Delta)
	}
	maxSamples := opts.MaxSamples
	if maxSamples <= 0 || maxSamples > n {
		maxSamples = n
	}
	minSamples := opts.MinSamples
	if minSamples < 2 {
		minSamples = 2
	}
	if minSamples > maxSamples {
		minSamples = maxSamples
	}

	opts.Telemetry.Counter(`tasti_query_runs_total{type="aggregate"}`).Inc()
	mCalls := opts.Telemetry.Counter(`tasti_query_label_calls_total{type="aggregate"}`)

	r := xrand.New(opts.Seed)
	buf := sampleBufs.Get().(*sampleBuf)
	// Raw labeler scores and matched proxy scores (0 without a proxy).
	fs, ps := buf.fs[:0], buf.ps[:0]
	defer func() {
		buf.fs, buf.ps = fs, ps
		sampleBufs.Put(buf)
	}()
	var calls int64
	scr := stopScreen{target: opts.ErrTarget, delta: opts.Delta, proxyMean: proxyMean}
	sample := func() error {
		id := r.Intn(n)
		f, err := value(id)
		if err != nil {
			return fmt.Errorf("aggregation: labeling record %d: %w", id, err)
		}
		calls++
		mCalls.Inc()
		p := 0.0
		if proxy != nil {
			p = proxy[id]
		}
		fs, ps = append(fs, f), append(ps, p)
		scr.add(f, p)
		return nil
	}

	// A budget exhausted mid-query is a graceful outcome, not a failure:
	// the samples already bought still support an unbiased estimate, just
	// with a wider confidence radius than requested. The result is flagged
	// Degraded so callers can tell a met error target from a truncated one.
	// Exhaustion before two samples leaves nothing to estimate from and
	// surfaces as the error itself. Every other labeler failure — and
	// exhaustion is never hit when the budget is ample — leaves the sampling
	// path bit-for-bit identical to the undegraded code.
	degraded := false
	for len(fs) < minSamples {
		if err := sample(); err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(fs) >= 2 {
				degraded = true
				break
			}
			return Result{}, err
		}
	}

	var res Result
	for {
		// The exact pass below is the only thing that decides stopping and
		// produces the result; the screen only skips it on draws where it
		// provably could not have stopped, so the pass runs a handful of
		// times per query instead of once per draw.
		if degraded || len(fs) >= maxSamples || !scr.provesNotYet() {
			c := 0.0
			if proxy != nil {
				if v := stats.Variance(ps); v > 0 {
					c = stats.Covariance(fs, ps) / v
				}
			}
			// Control-variate residuals y_i = f_i - c*(p_i - E[p]).
			var w stats.Welford
			hi, lo := 0, 0 // samples holding the largest and smallest residual
			for i, f := range fs {
				y := f
				if proxy != nil {
					y -= c * (ps[i] - proxyMean)
				}
				if y > w.Max() {
					hi = i
				}
				if y < w.Min() {
					lo = i
				}
				w.Add(y)
			}
			half := stats.EmpiricalBernsteinRadius(w.StdDev(), w.Range(), w.N(), opts.Delta)
			if degraded || half <= opts.ErrTarget || len(fs) >= maxSamples {
				res = Result{
					Estimate:            w.Mean(),
					LabelerCalls:        calls,
					HalfWidth:           half,
					ControlVariateCoeff: c,
					Degraded:            degraded,
				}
				break
			}
			scr.hi, scr.lo = point{fs[hi], ps[hi]}, point{fs[lo], ps[lo]}
		}
		if err := sample(); err != nil {
			if errors.Is(err, labeler.ErrBudgetExhausted) && len(fs) >= 2 {
				degraded = true
				continue
			}
			return Result{}, err
		}
	}
	if res.Degraded {
		opts.Telemetry.Counter(`tasti_query_degraded_total{type="aggregate"}`).Inc()
	}
	return res, nil
}

// Direct answers the aggregation query straight from proxy scores with no
// statistical guarantee: the mean of the propagated scores (the paper's
// "queries without guarantees" mode, Table 2).
func Direct(proxy []float64) float64 {
	return stats.Mean(proxy)
}

// Exhaustive labels every record — the brute-force baseline of Table 1. It
// returns the exact mean and spends n labeler calls.
func Exhaustive(n int, score ScoreFunc, lab labeler.Labeler) (Result, error) {
	if n <= 0 {
		return Result{}, errors.New("aggregation: empty dataset")
	}
	var w stats.Welford
	for id := 0; id < n; id++ {
		ann, err := lab.Label(id)
		if err != nil {
			return Result{}, fmt.Errorf("aggregation: labeling record %d: %w", id, err)
		}
		w.Add(score(ann))
	}
	return Result{Estimate: w.Mean(), LabelerCalls: int64(n)}, nil
}

// PercentError returns |est-truth|/|truth| in percent; if truth is zero it
// returns the absolute error in percent points.
func PercentError(est, truth float64) float64 {
	if truth == 0 {
		return math.Abs(est) * 100
	}
	return math.Abs(est-truth) / math.Abs(truth) * 100
}
