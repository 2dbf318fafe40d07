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
	"math/rand"
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
	// Telemetry, when non-nil, counts query runs and their labeler spend
	// (tasti_query_runs_total / tasti_query_label_calls_total with
	// type="aggregate"; the spend is added once, when the run ends).
	// Record-only: sampling order and stopping are unaffected.
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

// ValueSource answers the sampler's draws: each drawn record's aggregated
// quantity — the score of its target-labeler output — or the error that kept
// the label from being obtained.
type ValueSource interface {
	// Peek reads ahead of the draws: for each i it sets known[i] to whether
	// record ids[i]'s value can be had without a label and, when it can,
	// vals[i] to it. It must have no other effect — the sampler peeks at a
	// block of draws before its stopping rule has seen them, and a stop
	// throws the rest of the block away.
	Peek(ids []int, vals []float64, known []bool)
	// Value consumes the next draw, record id, once per draw and in draw
	// order, spending one labeler invocation when it succeeds. v and known
	// are what Peek found for the draw; a value another draw learnt since is
	// the source's to find.
	Value(id int, v float64, known bool) (float64, error)
}

// ValueFunc is a ValueSource that knows nothing ahead: every draw is one call
// of the function.
type ValueFunc func(id int) (float64, error)

// Peek knows no value.
func (f ValueFunc) Peek(_ []int, _ []float64, known []bool) { clear(known) }

// Value calls f.
func (f ValueFunc) Value(id int, _ float64, _ bool) (float64, error) { return f(id) }

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
	return EstimateValues(opts, n, proxy, proxyMean, ValueFunc(func(id int) (float64, error) {
		ann, err := lab.Label(id)
		if err != nil {
			return 0, err
		}
		return score(ann), nil
	}))
}

// sampleBuf holds one run's sample vectors between runs, so a run appends
// into the capacity the previous one grew instead of doubling its way up
// again, and the block of draws the run reads ahead. Result carries scalars
// only; nothing outlives the run that filled it.
type sampleBuf struct {
	fs, ps []float64
	ahead  drawBlock
}

var sampleBufs = sync.Pool{New: func() any { return new(sampleBuf) }}

// drawBlock is the next xrand.Block draws of a run, consumed in order from
// next on: their record IDs, their proxy scores (0 without a proxy) and what
// the value source's Peek found for them.
type drawBlock struct {
	ids   [xrand.Block]int
	ps    [xrand.Block]float64
	vals  [xrand.Block]float64
	known [xrand.Block]bool
	next  int
}

// fill draws the next block of record IDs from r (r.Intn's draws), then
// gathers their proxy scores and known values in passes of independent reads,
// so the cache misses of a whole block overlap instead of each stalling its
// own draw. The generator is the run's own, so the draws a stop leaves
// unconsumed are simply never read.
func (b *drawBlock) fill(r *rand.Rand, n int, proxy []float64, value ValueSource) {
	xrand.IntnBlock(r, n, b.ids[:])
	if proxy != nil {
		for i, id := range b.ids {
			b.ps[i] = proxy[id]
		}
	} else {
		clear(b.ps[:])
	}
	value.Peek(b.ids[:], b.vals[:], b.known[:])
	b.next = 0
}

// EstimateValues is the sampler itself: Estimate with the labeler and the
// score function folded into one per-record value source, for a caller that
// can answer some records' values without materialising an annotation (a
// served request reading a proxy column's exact scores). proxyMean must be
// stats.Mean(proxy), 0 when proxy is nil — a constant of the vector, which a
// caller that keeps the vector keeps beside it. Draw order, stopping and the
// result are those of Estimate over the same values.
//
// The record IDs are drawn a block ahead of the stopping rule (drawBlock) but
// consumed one at a time, in the generator's order: every Value call, and so
// every label, error and stop, falls on the draw it falls on when each ID is
// drawn as it is consumed.
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
	var calls int64
	// Booked once, on whatever path the run ends: one shared atomic add per
	// query instead of one per draw.
	defer func() { mCalls.Add(calls) }()

	r := xrand.New(opts.Seed)
	buf := sampleBufs.Get().(*sampleBuf)
	// Raw labeler scores and matched proxy scores (0 without a proxy).
	fs, ps := buf.fs[:0], buf.ps[:0]
	defer func() {
		buf.fs, buf.ps = fs, ps
		sampleBufs.Put(buf)
	}()
	ahead := &buf.ahead
	ahead.next = len(ahead.ids)
	scr := newStopScreen(opts.ErrTarget, opts.Delta, proxyMean)
	sample := func() error {
		if ahead.next == len(ahead.ids) {
			ahead.fill(r, n, proxy, value)
		}
		i := ahead.next
		ahead.next++
		id := ahead.ids[i]
		f, err := value.Value(id, ahead.vals[i], ahead.known[i])
		if err != nil {
			return fmt.Errorf("aggregation: labeling record %d: %w", id, err)
		}
		calls++
		p := ahead.ps[i]
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
			scr.track(c, point{fs[hi], ps[hi]}, point{fs[lo], ps[lo]})
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
