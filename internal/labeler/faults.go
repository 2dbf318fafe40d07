package labeler

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/dataset"
	"repro/internal/xrand"
)

// Failure taxonomy for target-labeler invocations. Production target
// labelers are remote GPU inference or crowd-work calls, so their failures
// split into two classes the reliability middleware treats differently:
//
//   - retryable: the call may succeed if repeated (rate limits, dropped
//     connections, worker churn, timeouts, a tripped circuit waiting out its
//     cooldown). Retry middleware spends extra attempts on these.
//   - terminal: repeating the call cannot help. Either the record itself is
//     unlabelable (corrupt frame, rejected crowd task — ErrPermanent) or the
//     caller's budget is spent (ErrBudgetExhausted).
//
// IsRetryable is the single classification point; every middleware and the
// build pipeline consult it rather than matching errors ad hoc.
var (
	// ErrTransient marks a fault that a later attempt may not hit.
	ErrTransient = errors.New("labeler: transient failure")
	// ErrPermanent marks a record that no attempt will ever label.
	ErrPermanent = errors.New("labeler: record permanently unlabelable")
	// ErrLabelTimeout is returned by Deadline when a call exceeds its
	// per-invocation timeout.
	ErrLabelTimeout = errors.New("labeler: call timed out")
	// ErrBreakerOpen is returned by Breaker while the circuit is open (or
	// half-open with a probe already in flight).
	ErrBreakerOpen = errors.New("labeler: circuit breaker open")
)

// IsRetryable reports whether a labeler error is worth retrying: transient
// faults, per-call timeouts, and breaker rejections are; permanent
// per-record failures, exhausted budgets, and caller bugs (out-of-range IDs)
// are not.
func IsRetryable(err error) bool {
	return errors.Is(err, ErrTransient) ||
		errors.Is(err, ErrLabelTimeout) ||
		errors.Is(err, ErrBreakerOpen)
}

// FlakyConfig parameterizes deterministic fault injection.
type FlakyConfig struct {
	// Seed drives every fault decision. For a fixed seed the fault a record
	// sees on its n-th attempt is fixed, regardless of how attempts
	// interleave across records — which is what keeps chaos tests and
	// worker-invariance tests deterministic.
	Seed int64
	// TransientRate is the per-attempt probability of injecting a transient
	// error.
	TransientRate float64
	// MaxConsecutive caps how many transient faults a single record can hit
	// in a row (0 = unbounded). Chaos tests set it below the retry budget so
	// a retried build provably converges.
	MaxConsecutive int
	// PermanentIDs lists records that always fail with ErrPermanent,
	// simulating corrupt inputs or rejected crowd tasks.
	PermanentIDs []int
	// Latency is the base simulated per-call latency (0 = none).
	Latency time.Duration
	// SpikeRate is the per-attempt probability of a latency spike.
	SpikeRate float64
	// Spike is the extra latency a spiked call sleeps, on top of Latency.
	Spike time.Duration
}

// FaultStats counts what a Flaky labeler injected.
type FaultStats struct {
	// Calls is the total attempts observed (including failed ones).
	Calls int64
	// Transient is the number of injected transient errors.
	Transient int64
	// Permanent is the number of rejected calls to permanently failed
	// records.
	Permanent int64
	// Spikes is the number of injected latency spikes.
	Spikes int64
}

// Flaky wraps a labeler with deterministic fault injection: seeded transient
// errors, latency spikes, and a set of permanently unlabelable records. It
// is the chaos-testing stand-in for a remote labeler tier that rate-limits,
// times out, and occasionally rejects records for good. It is safe for
// concurrent use.
type Flaky struct {
	inner     Labeler
	cfg       FlakyConfig
	permanent map[int]struct{}

	mu       sync.Mutex
	attempts map[int]int // per-record attempt counter, drives fault decisions
	streak   map[int]int // consecutive transient faults per record
	stats    FaultStats
}

// NewFlaky wraps inner with fault injection.
func NewFlaky(inner Labeler, cfg FlakyConfig) *Flaky {
	perm := make(map[int]struct{}, len(cfg.PermanentIDs))
	for _, id := range cfg.PermanentIDs {
		perm[id] = struct{}{}
	}
	return &Flaky{
		inner:     inner,
		cfg:       cfg,
		permanent: perm,
		attempts:  make(map[int]int),
		streak:    make(map[int]int),
	}
}

// Label implements Labeler.
func (f *Flaky) Label(id int) (dataset.Annotation, error) {
	return f.LabelContext(context.Background(), id)
}

// LabelContext implements ContextLabeler: injected latency respects ctx, so
// Deadline middleware can cut a spiked call short.
func (f *Flaky) LabelContext(ctx context.Context, id int) (dataset.Annotation, error) {
	f.mu.Lock()
	f.stats.Calls++
	if _, ok := f.permanent[id]; ok {
		f.stats.Permanent++
		f.mu.Unlock()
		return nil, fmt.Errorf("labeler %s: record %d: %w", f.inner.Name(), id, ErrPermanent)
	}
	attempt := f.attempts[id]
	f.attempts[id]++
	r := xrand.Split(f.cfg.Seed, fmt.Sprintf("flaky-%d-%d", id, attempt))
	spiked := f.cfg.SpikeRate > 0 && xrand.Bernoulli(r, f.cfg.SpikeRate)
	fault := f.cfg.TransientRate > 0 && xrand.Bernoulli(r, f.cfg.TransientRate)
	if fault && f.cfg.MaxConsecutive > 0 && f.streak[id] >= f.cfg.MaxConsecutive {
		fault = false
	}
	if fault {
		f.streak[id]++
		f.stats.Transient++
	} else {
		f.streak[id] = 0
	}
	if spiked {
		f.stats.Spikes++
	}
	f.mu.Unlock()

	delay := f.cfg.Latency
	if spiked {
		delay += f.cfg.Spike
	}
	if delay > 0 {
		if err := sleepCtx(ctx, delay); err != nil {
			return nil, err
		}
	}
	if fault {
		return nil, fmt.Errorf("labeler %s: record %d attempt %d: %w", f.inner.Name(), id, attempt, ErrTransient)
	}
	return LabelWithContext(ctx, f.inner, id)
}

// Name implements Labeler.
func (f *Flaky) Name() string { return f.inner.Name() }

// Cost implements Labeler.
func (f *Flaky) Cost() CostModel { return f.inner.Cost() }

// Stats returns a snapshot of the injected faults.
func (f *Flaky) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// sleepCtx sleeps for d or until ctx is done, returning ctx's error in the
// latter case.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if ctx.Done() == nil {
		time.Sleep(d)
		return nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
