package labeler

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
	"repro/internal/xrand"
)

// ContextLabeler is the optional context-aware extension of Labeler. The
// reliability middleware implements it and forwards the context inward, so a
// caller-supplied deadline or a disconnected HTTP client cancels retries,
// backoff sleeps, and injected latency anywhere in the chain.
type ContextLabeler interface {
	Labeler
	// LabelContext is Label bounded by ctx.
	LabelContext(ctx context.Context, id int) (dataset.Annotation, error)
}

// labelWithContext invokes lab with ctx when it supports it, and otherwise
// checks ctx before the plain call — the call itself then runs to completion,
// but a canceled caller at least never starts new work.
func labelWithContext(ctx context.Context, lab Labeler, id int) (dataset.Annotation, error) {
	if cl, ok := lab.(ContextLabeler); ok {
		return cl.LabelContext(ctx, id)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return lab.Label(id)
}

// WithContext binds a labeler to a context: every Label call first checks
// ctx and forwards it to context-aware inner labelers. It is how the serve
// path hands each HTTP request's context to the query processors, whose
// Labeler-based sampling loops know nothing about contexts. The check is on
// every call — a context-aware inner labeler that answers from a cache never
// looks at its context, and a canceled query must not keep drawing hits.
func WithContext(ctx context.Context, inner Labeler) Labeler {
	return &ctxBound{ctx: ctx, done: ctx.Done(), inner: inner}
}

type ctxBound struct {
	ctx   context.Context
	done  <-chan struct{} // ctx.Done(), polled without the context's lock
	inner Labeler
}

func (c *ctxBound) Label(id int) (dataset.Annotation, error) {
	select {
	case <-c.done:
		return nil, c.ctx.Err()
	default:
	}
	if cl, ok := c.inner.(ContextLabeler); ok {
		return cl.LabelContext(c.ctx, id)
	}
	return c.inner.Label(id)
}

func (c *ctxBound) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	// Prefer the per-call context; it is derived from (or equal to) the
	// bound one on every current call path.
	return labelWithContext(ctx, c.inner, id)
}

func (c *ctxBound) Name() string    { return c.inner.Name() }
func (c *ctxBound) Cost() CostModel { return c.inner.Cost() }

// RetryPolicy parameterizes Retry: exponential backoff with seeded jitter
// and a hard attempt budget.
type RetryPolicy struct {
	// MaxAttempts is the total attempts per logical call, including the
	// first. Values <= 1 disable retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry.
	BaseDelay time.Duration
	// MaxDelay caps the backoff growth (0 = uncapped).
	MaxDelay time.Duration
	// Multiplier grows the delay per retry (values < 1 mean the default 2).
	Multiplier float64
	// Jitter is the fraction of each delay that is randomized, in [0, 1]:
	// the sleep is delay * (1 - Jitter + Jitter*u) for uniform u.
	Jitter float64
	// Seed drives the jitter deterministically per (record, attempt), so
	// sleep durations are reproducible regardless of goroutine interleaving.
	Seed int64
}

// Enabled reports whether the policy retries at all.
func (p RetryPolicy) Enabled() bool { return p.MaxAttempts > 1 }

// DefaultRetryPolicy is tuned for the simulated labeler tier: 5 attempts,
// 1 ms doubling to a 50 ms cap, half-jittered.
func DefaultRetryPolicy(seed int64) RetryPolicy {
	return RetryPolicy{
		MaxAttempts: 5,
		BaseDelay:   time.Millisecond,
		MaxDelay:    50 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
		Seed:        seed,
	}
}

// delay returns the backoff before retry number retry (0-based) of record
// id, jittered deterministically.
func (p RetryPolicy) delay(id, retry int) time.Duration {
	mult := p.Multiplier
	if mult < 1 {
		mult = 2
	}
	d := float64(p.BaseDelay)
	for i := 0; i < retry; i++ {
		d *= mult
	}
	if p.MaxDelay > 0 && d > float64(p.MaxDelay) {
		d = float64(p.MaxDelay)
	}
	if p.Jitter > 0 {
		u := xrand.Split(p.Seed, fmt.Sprintf("retry-%d-%d", id, retry)).Float64()
		d *= 1 - p.Jitter + p.Jitter*u
	}
	return time.Duration(d)
}

// Retry wraps a labeler with budgeted retries of retryable errors (see
// IsRetryable), backing off exponentially with seeded jitter between
// attempts. Terminal errors — permanent records, exhausted budgets — pass
// through untouched on the first attempt. It is safe for concurrent use.
type Retry struct {
	inner Labeler
	pol   RetryPolicy

	retries atomic.Int64
	waited  atomic.Int64 // nanoseconds spent in backoff

	// Per-attempt telemetry (nil-safe; see SetTelemetry).
	mRetries, mGiveUps         *telemetry.Counter
	mOK, mRetryable, mTerminal *telemetry.Counter
}

// NewRetry wraps inner with the given retry policy.
func NewRetry(inner Labeler, pol RetryPolicy) *Retry {
	return &Retry{inner: inner, pol: pol}
}

// SetTelemetry points the wrapper's per-attempt accounting at reg:
// tasti_labeler_attempts_total{outcome="ok"|"retryable"|"terminal"} counts
// every inner invocation by how it ended, tasti_labeler_retries_total the
// extra attempts spent, and tasti_labeler_retry_giveups_total the logical
// calls that failed with the budget exhausted. Call it before the wrapper
// sees traffic.
func (rt *Retry) SetTelemetry(reg *telemetry.Registry) {
	rt.mRetries = reg.Counter("tasti_labeler_retries_total")
	rt.mGiveUps = reg.Counter("tasti_labeler_retry_giveups_total")
	rt.mOK = reg.Counter(`tasti_labeler_attempts_total{outcome="ok"}`)
	rt.mRetryable = reg.Counter(`tasti_labeler_attempts_total{outcome="retryable"}`)
	rt.mTerminal = reg.Counter(`tasti_labeler_attempts_total{outcome="terminal"}`)
}

// Label implements Labeler.
func (rt *Retry) Label(id int) (dataset.Annotation, error) {
	return rt.LabelContext(context.Background(), id)
}

// LabelContext implements ContextLabeler. Backoff sleeps respect ctx, so a
// canceled request stops burning attempts immediately.
func (rt *Retry) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	attempts := rt.pol.MaxAttempts
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			d := rt.pol.delay(id, a-1)
			rt.waited.Add(int64(d))
			if err := sleepCtx(ctx, d); err != nil {
				return nil, err
			}
			rt.retries.Add(1)
			rt.mRetries.Inc()
		}
		ann, err := labelWithContext(ctx, rt.inner, id)
		if err == nil {
			rt.mOK.Inc()
			return ann, nil
		}
		lastErr = err
		if !IsRetryable(err) || ctx.Err() != nil {
			rt.mTerminal.Inc()
			return nil, err
		}
		rt.mRetryable.Inc()
	}
	rt.mGiveUps.Inc()
	return nil, fmt.Errorf("labeler: %d attempts exhausted for record %d: %w", attempts, id, lastErr)
}

// Name implements Labeler.
func (rt *Retry) Name() string { return rt.inner.Name() }

// Cost implements Labeler.
func (rt *Retry) Cost() CostModel { return rt.inner.Cost() }

// Retries returns the extra attempts spent beyond first tries. Each one
// invoked the inner labeler again, so reliability overhead in cost terms is
// Cost().Mul(Retries()).
func (rt *Retry) Retries() int64 { return rt.retries.Load() }

// Waited returns the total backoff time slept.
func (rt *Retry) Waited() time.Duration { return time.Duration(rt.waited.Load()) }

// Deadline wraps a labeler with a per-call timeout. Context-aware inner
// labelers are canceled in place; plain labelers run in a goroutine that is
// abandoned on timeout (its result is discarded), which bounds the caller's
// latency even when the inner call is stuck. Timeouts surface as
// ErrLabelTimeout, which is retryable. It is safe for concurrent use.
type Deadline struct {
	inner    Labeler
	timeout  time.Duration
	timeouts atomic.Int64

	mTimeouts *telemetry.Counter // nil-safe; see SetTelemetry
}

// NewDeadline wraps inner with a per-call timeout.
func NewDeadline(inner Labeler, timeout time.Duration) *Deadline {
	return &Deadline{inner: inner, timeout: timeout}
}

// SetTelemetry counts per-call deadline expirations into reg as
// tasti_labeler_timeouts_total. Call it before the wrapper sees traffic.
func (d *Deadline) SetTelemetry(reg *telemetry.Registry) {
	d.mTimeouts = reg.Counter("tasti_labeler_timeouts_total")
}

// Label implements Labeler.
func (d *Deadline) Label(id int) (dataset.Annotation, error) {
	return d.LabelContext(context.Background(), id)
}

// LabelContext implements ContextLabeler.
func (d *Deadline) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	callCtx, cancel := context.WithTimeout(ctx, d.timeout)
	defer cancel()

	var ann dataset.Annotation
	var err error
	if cl, ok := d.inner.(ContextLabeler); ok {
		ann, err = cl.LabelContext(callCtx, id)
	} else {
		type result struct {
			ann dataset.Annotation
			err error
		}
		ch := make(chan result, 1) // buffered: the goroutine never blocks if abandoned
		go func() {
			a, e := d.inner.Label(id)
			ch <- result{a, e}
		}()
		select {
		case res := <-ch:
			ann, err = res.ann, res.err
		case <-callCtx.Done():
			err = callCtx.Err()
		}
	}
	if err != nil && callCtx.Err() == context.DeadlineExceeded && ctx.Err() == nil {
		// The per-call deadline fired (not the caller's context): translate
		// to the retryable timeout error.
		d.timeouts.Add(1)
		d.mTimeouts.Inc()
		return nil, fmt.Errorf("labeler %s: record %d after %v: %w", d.inner.Name(), id, d.timeout, ErrLabelTimeout)
	}
	return ann, err
}

// Name implements Labeler.
func (d *Deadline) Name() string { return d.inner.Name() }

// Cost implements Labeler.
func (d *Deadline) Cost() CostModel { return d.inner.Cost() }

// Timeouts returns how many calls hit the per-call deadline.
func (d *Deadline) Timeouts() int64 { return d.timeouts.Load() }

// BreakerState is a circuit breaker's position.
type BreakerState int

const (
	// BreakerClosed passes calls through, counting consecutive failures.
	BreakerClosed BreakerState = iota
	// BreakerOpen rejects calls until the cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen admits one probe at a time; enough successes close
	// the circuit, any failure reopens it.
	BreakerHalfOpen
)

// String renders the state for health endpoints and logs.
func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return fmt.Sprintf("BreakerState(%d)", int(s))
	}
}

// BreakerPolicy parameterizes a circuit breaker.
type BreakerPolicy struct {
	// FailureThreshold is the consecutive retryable failures that trip the
	// circuit (values < 1 mean the default 5).
	FailureThreshold int
	// Cooldown is how long the circuit stays open before admitting a probe
	// (values <= 0 mean the default 1s).
	Cooldown time.Duration
	// HalfOpenProbes is the consecutive probe successes required to close
	// again (values < 1 mean the default 1).
	HalfOpenProbes int
}

func (p BreakerPolicy) withDefaults() BreakerPolicy {
	if p.FailureThreshold < 1 {
		p.FailureThreshold = 5
	}
	if p.Cooldown <= 0 {
		p.Cooldown = time.Second
	}
	if p.HalfOpenProbes < 1 {
		p.HalfOpenProbes = 1
	}
	return p
}

// Breaker wraps a labeler with a circuit breaker. While closed, calls pass
// through; FailureThreshold consecutive retryable failures trip it open.
// While open, calls fail fast with ErrBreakerOpen — protecting a struggling
// labeler tier from a retry storm — until Cooldown elapses, after which the
// breaker goes half-open and admits one probe call at a time. HalfOpenProbes
// consecutive probe successes close it; any probe failure reopens it.
//
// Only retryable errors (IsRetryable) count toward tripping: a permanently
// unlabelable record or an exhausted budget is not evidence that the labeler
// tier is unhealthy. It is safe for concurrent use.
type Breaker struct {
	inner Labeler
	pol   BreakerPolicy
	now   func() time.Time // injectable for tests

	mu            sync.Mutex
	state         BreakerState
	consecFails   int
	openedAt      time.Time
	probeInFlight bool
	probeHits     int
	trips         int64
	rejected      int64

	// Telemetry (nil-safe; see SetTelemetry).
	mTrips, mRejected *telemetry.Counter
	mState            *telemetry.Gauge
}

// NewBreaker wraps inner with a circuit breaker.
func NewBreaker(inner Labeler, pol BreakerPolicy) *Breaker {
	return &Breaker{inner: inner, pol: pol.withDefaults(), now: time.Now}
}

// SetTelemetry publishes the breaker's behavior into reg:
// tasti_breaker_trips_total, tasti_breaker_rejected_total, and a
// tasti_breaker_state gauge holding the numeric BreakerState (0 closed,
// 1 open, 2 half-open), updated on every transition. Call it before the
// wrapper sees traffic.
func (b *Breaker) SetTelemetry(reg *telemetry.Registry) {
	b.mTrips = reg.Counter("tasti_breaker_trips_total")
	b.mRejected = reg.Counter("tasti_breaker_rejected_total")
	b.mState = reg.Gauge("tasti_breaker_state")
	b.mState.Set(float64(b.State()))
}

// Label implements Labeler.
func (b *Breaker) Label(id int) (dataset.Annotation, error) {
	return b.LabelContext(context.Background(), id)
}

// LabelContext implements ContextLabeler.
func (b *Breaker) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	probe, err := b.admit()
	if err != nil {
		return nil, fmt.Errorf("labeler %s: record %d: %w", b.inner.Name(), id, err)
	}
	ann, err := labelWithContext(ctx, b.inner, id)
	b.record(probe, err)
	return ann, err
}

// admit decides whether a call may proceed, advancing open → half-open when
// the cooldown has elapsed. It returns whether the admitted call is a
// half-open probe.
func (b *Breaker) admit() (probe bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return false, nil
	case BreakerOpen:
		if b.now().Sub(b.openedAt) < b.pol.Cooldown {
			b.rejected++
			b.mRejected.Inc()
			return false, ErrBreakerOpen
		}
		b.state = BreakerHalfOpen
		b.mState.Set(float64(BreakerHalfOpen))
		b.probeHits = 0
		b.probeInFlight = true
		return true, nil
	default: // BreakerHalfOpen
		if b.probeInFlight {
			b.rejected++
			b.mRejected.Inc()
			return false, ErrBreakerOpen
		}
		b.probeInFlight = true
		return true, nil
	}
}

// record feeds a call's outcome back into the state machine.
func (b *Breaker) record(probe bool, err error) {
	failure := err != nil && IsRetryable(err)
	b.mu.Lock()
	defer b.mu.Unlock()
	if probe {
		b.probeInFlight = false
		if b.state != BreakerHalfOpen {
			return // a concurrent transition already resolved the probe round
		}
		if failure {
			b.trip()
			return
		}
		b.probeHits++
		if b.probeHits >= b.pol.HalfOpenProbes {
			b.state = BreakerClosed
			b.mState.Set(float64(BreakerClosed))
			b.consecFails = 0
		}
		return
	}
	if b.state != BreakerClosed {
		return
	}
	if !failure {
		b.consecFails = 0
		return
	}
	b.consecFails++
	if b.consecFails >= b.pol.FailureThreshold {
		b.trip()
	}
}

// trip opens the circuit; the caller holds b.mu.
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.now()
	b.consecFails = 0
	b.trips++
	b.mTrips.Inc()
	b.mState.Set(float64(BreakerOpen))
}

// Name implements Labeler.
func (b *Breaker) Name() string { return b.inner.Name() }

// Cost implements Labeler.
func (b *Breaker) Cost() CostModel { return b.inner.Cost() }

// State returns the current circuit position.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	// Surface open → half-open transitions that only admit would perform,
	// so health endpoints see "half-open" once the cooldown has elapsed.
	if b.state == BreakerOpen && b.now().Sub(b.openedAt) >= b.pol.Cooldown {
		return BreakerHalfOpen
	}
	return b.state
}

// Trips returns how many times the circuit opened.
func (b *Breaker) Trips() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.trips
}

// Rejected returns how many calls failed fast on an open circuit.
func (b *Breaker) Rejected() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.rejected
}
