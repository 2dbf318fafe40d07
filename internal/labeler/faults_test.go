package labeler

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/dataset"
	"repro/internal/telemetry"
)

func flakyOracle(t *testing.T, n int, cfg FlakyConfig) (*Flaky, *Counting) {
	t.Helper()
	ds := videoDataset(t, n)
	counting := NewCounting(NewOracle(ds, "oracle", MaskRCNNCost))
	return NewFlaky(counting, cfg), counting
}

func TestFlakyDeterministicPerAttempt(t *testing.T) {
	// Two Flaky instances with the same seed must inject the same fault on
	// the same (record, attempt) pair, regardless of the order other records
	// are labeled in.
	mk := func() *Flaky {
		f, _ := flakyOracle(t, 50, FlakyConfig{Seed: 7, TransientRate: 0.5})
		return f
	}
	a, b := mk(), mk()
	// Interleave differently: a labels 0..9 three times round-robin, b
	// labels each record's three attempts back to back.
	type outcome struct{ errs [3]bool }
	got := func(f *Flaky, byRecord bool) map[int]outcome {
		out := make(map[int]outcome)
		if byRecord {
			for id := 0; id < 10; id++ {
				var o outcome
				for at := 0; at < 3; at++ {
					_, err := f.Label(id)
					o.errs[at] = err != nil
				}
				out[id] = o
			}
			return out
		}
		tmp := make(map[int]*outcome)
		for at := 0; at < 3; at++ {
			for id := 0; id < 10; id++ {
				if tmp[id] == nil {
					tmp[id] = &outcome{}
				}
				_, err := f.Label(id)
				tmp[id].errs[at] = err != nil
			}
		}
		for id, o := range tmp {
			out[id] = *o
		}
		return out
	}
	oa, ob := got(a, false), got(b, true)
	for id := 0; id < 10; id++ {
		if oa[id] != ob[id] {
			t.Fatalf("record %d: fault pattern %v vs %v", id, oa[id], ob[id])
		}
	}
	if a.Stats().Transient == 0 {
		t.Fatal("no transient faults injected at rate 0.5")
	}
}

func TestFlakyErrorClassification(t *testing.T) {
	f, counting := flakyOracle(t, 20, FlakyConfig{Seed: 1, TransientRate: 1, PermanentIDs: []int{3}})

	_, err := f.Label(5)
	if !errors.Is(err, ErrTransient) || !IsRetryable(err) {
		t.Fatalf("transient fault = %v (retryable=%v)", err, IsRetryable(err))
	}
	_, err = f.Label(3)
	if !errors.Is(err, ErrPermanent) || IsRetryable(err) {
		t.Fatalf("permanent fault = %v (retryable=%v)", err, IsRetryable(err))
	}
	if counting.Calls() != 0 {
		t.Fatalf("faulted calls reached the oracle: %d", counting.Calls())
	}
	st := f.Stats()
	if st.Transient != 1 || st.Permanent != 1 || st.Calls != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestFlakyMaxConsecutiveBoundsFaults(t *testing.T) {
	// With rate 1 but MaxConsecutive 2, every third attempt must succeed.
	f, _ := flakyOracle(t, 20, FlakyConfig{Seed: 1, TransientRate: 1, MaxConsecutive: 2})
	for round := 0; round < 3; round++ {
		var failures int
		for {
			if _, err := f.Label(9); err == nil {
				break
			}
			failures++
		}
		if failures > 2 {
			t.Fatalf("round %d: %d consecutive faults despite cap 2", round, failures)
		}
	}
}

func TestRetryRecoversTransientFaults(t *testing.T) {
	f, counting := flakyOracle(t, 30, FlakyConfig{Seed: 3, TransientRate: 0.6, MaxConsecutive: 3})
	rt := NewRetry(f, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond, Seed: 3})
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(reg)
	for id := 0; id < 30; id++ {
		if _, err := rt.Label(id); err != nil {
			t.Fatalf("record %d failed through retry: %v", id, err)
		}
	}
	if counting.Calls() != 30 {
		t.Fatalf("oracle served %d calls, want 30", counting.Calls())
	}
	if rt.Retries() == 0 {
		t.Fatal("no retries recorded at fault rate 0.6")
	}
	if got := reg.Counter("tasti_labeler_retry_giveups_total").Value(); got != 0 {
		t.Fatalf("give-ups = %d", got)
	}
	if got, want := rt.Retries(), f.Stats().Transient; got != want {
		t.Fatalf("retries %d != injected transient faults %d", got, want)
	}
}

func TestRetryGivesUpAfterBudget(t *testing.T) {
	f, _ := flakyOracle(t, 10, FlakyConfig{Seed: 1, TransientRate: 1})
	rt := NewRetry(f, RetryPolicy{MaxAttempts: 4, BaseDelay: time.Microsecond, Seed: 1})
	reg := telemetry.NewRegistry()
	rt.SetTelemetry(reg)
	_, err := rt.Label(2)
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	if got := f.Stats().Calls; got != 4 {
		t.Fatalf("attempts = %d, want 4", got)
	}
	if got := reg.Counter("tasti_labeler_retry_giveups_total").Value(); got != 1 {
		t.Fatalf("give-ups = %d", got)
	}
}

func TestRetryPassesTerminalErrorsThrough(t *testing.T) {
	ds := videoDataset(t, 10)
	oracle := NewOracle(ds, "oracle", MaskRCNNCost)

	perm := NewFlaky(oracle, FlakyConfig{Seed: 1, PermanentIDs: []int{4}})
	rt := NewRetry(perm, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond, Seed: 1})
	if _, err := rt.Label(4); !errors.Is(err, ErrPermanent) {
		t.Fatalf("err = %v", err)
	}
	if got := perm.Stats().Calls; got != 1 {
		t.Fatalf("terminal error retried: %d attempts", got)
	}

	budget := NewBudgeted(oracle, 0)
	rt2 := NewRetry(budget, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Microsecond, Seed: 1})
	if _, err := rt2.Label(0); !errors.Is(err, ErrBudgetExhausted) {
		t.Fatalf("err = %v", err)
	}
	if rt2.Retries() != 0 {
		t.Fatalf("budget exhaustion retried %d times", rt2.Retries())
	}
}

func TestRetryBackoffDeterministicAndCapped(t *testing.T) {
	pol := RetryPolicy{
		MaxAttempts: 6,
		BaseDelay:   time.Millisecond,
		MaxDelay:    4 * time.Millisecond,
		Multiplier:  2,
		Jitter:      0.5,
		Seed:        11,
	}
	for retry := 0; retry < 5; retry++ {
		d1, d2 := pol.delay(42, retry), pol.delay(42, retry)
		if d1 != d2 {
			t.Fatalf("retry %d: delay not deterministic (%v vs %v)", retry, d1, d2)
		}
		if d1 > 4*time.Millisecond {
			t.Fatalf("retry %d: delay %v exceeds cap", retry, d1)
		}
		if d1 < time.Duration(float64(time.Millisecond)*0.49) && retry == 0 {
			t.Fatalf("first delay %v under jitter floor", d1)
		}
	}
}

func TestDeadlineTimesOutSpikedCalls(t *testing.T) {
	f, _ := flakyOracle(t, 10, FlakyConfig{Seed: 2, SpikeRate: 1, Spike: 200 * time.Millisecond})
	d := NewDeadline(f, 5*time.Millisecond)
	start := time.Now()
	_, err := d.Label(0)
	if !errors.Is(err, ErrLabelTimeout) || !IsRetryable(err) {
		t.Fatalf("err = %v (retryable=%v)", err, IsRetryable(err))
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("deadline did not bound latency: %v", elapsed)
	}
	if d.Timeouts() != 1 {
		t.Fatalf("timeouts = %d", d.Timeouts())
	}
}

func TestDeadlineBoundsContextUnawareLabelers(t *testing.T) {
	d := NewDeadline(stuckLabeler{}, 5*time.Millisecond)
	start := time.Now()
	_, err := d.Label(0)
	if !errors.Is(err, ErrLabelTimeout) {
		t.Fatalf("err = %v", err)
	}
	if elapsed := time.Since(start); elapsed > 150*time.Millisecond {
		t.Fatalf("deadline did not bound latency: %v", elapsed)
	}
}

// stuckLabeler ignores contexts and blocks long enough to trip any deadline.
type stuckLabeler struct{}

func (stuckLabeler) Label(id int) (dataset.Annotation, error) {
	time.Sleep(300 * time.Millisecond)
	return dataset.VideoAnnotation{}, nil
}
func (stuckLabeler) Name() string    { return "stuck" }
func (stuckLabeler) Cost() CostModel { return CostModel{} }

func TestDeadlinePreservesCallerCancellation(t *testing.T) {
	f, _ := flakyOracle(t, 10, FlakyConfig{Seed: 2, Latency: 200 * time.Millisecond})
	d := NewDeadline(f, time.Minute)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	_, err := d.LabelContext(ctx, 0)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if errors.Is(err, ErrLabelTimeout) {
		t.Fatal("caller cancellation misreported as per-call timeout")
	}
}

func TestBreakerStateMachine(t *testing.T) {
	ds := videoDataset(t, 10)
	oracle := NewOracle(ds, "oracle", MaskRCNNCost)
	f := NewFlaky(oracle, FlakyConfig{Seed: 1, TransientRate: 1}) // always fails
	b := NewBreaker(f, BreakerPolicy{FailureThreshold: 3, Cooldown: time.Second, HalfOpenProbes: 2})
	clock := time.Unix(1000, 0)
	b.now = func() time.Time { return clock }

	// Closed: three consecutive failures trip it.
	for i := 0; i < 3; i++ {
		if b.State() != BreakerClosed {
			t.Fatalf("call %d: state %v", i, b.State())
		}
		if _, err := b.Label(0); !errors.Is(err, ErrTransient) {
			t.Fatalf("err = %v", err)
		}
	}
	if b.State() != BreakerOpen || b.Trips() != 1 {
		t.Fatalf("state %v trips %d after threshold", b.State(), b.Trips())
	}

	// Open: calls fail fast without touching the inner labeler.
	innerBefore := f.Stats().Calls
	if _, err := b.Label(0); !errors.Is(err, ErrBreakerOpen) {
		t.Fatalf("err = %v", err)
	}
	if f.Stats().Calls != innerBefore {
		t.Fatal("open breaker forwarded a call")
	}
	if b.Rejected() != 1 {
		t.Fatalf("rejected = %d", b.Rejected())
	}

	// After the cooldown the breaker is half-open; a failed probe reopens.
	clock = clock.Add(2 * time.Second)
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after cooldown = %v", b.State())
	}
	if _, err := b.Label(0); !errors.Is(err, ErrTransient) {
		t.Fatalf("probe err = %v", err)
	}
	if b.State() != BreakerOpen || b.Trips() != 2 {
		t.Fatalf("failed probe: state %v trips %d", b.State(), b.Trips())
	}

	// Heal the labeler; two probe successes close the circuit.
	f.cfg.TransientRate = 0
	clock = clock.Add(2 * time.Second)
	if _, err := b.Label(1); err != nil {
		t.Fatalf("probe 1: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state after probe 1 = %v", b.State())
	}
	if _, err := b.Label(2); err != nil {
		t.Fatalf("probe 2: %v", err)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state after probe 2 = %v", b.State())
	}
}

func TestBreakerIgnoresTerminalErrors(t *testing.T) {
	ds := videoDataset(t, 10)
	oracle := NewOracle(ds, "oracle", MaskRCNNCost)
	f := NewFlaky(oracle, FlakyConfig{Seed: 1, PermanentIDs: []int{0, 1, 2, 3, 4, 5}})
	b := NewBreaker(f, BreakerPolicy{FailureThreshold: 2})
	for id := 0; id < 6; id++ {
		if _, err := b.Label(id); !errors.Is(err, ErrPermanent) {
			t.Fatalf("err = %v", err)
		}
	}
	if b.State() != BreakerClosed || b.Trips() != 0 {
		t.Fatalf("per-record failures tripped the breaker: state %v trips %d", b.State(), b.Trips())
	}
}

func TestBreakerHalfOpenAdmitsOneProbe(t *testing.T) {
	ds := videoDataset(t, 10)
	oracle := NewOracle(ds, "oracle", MaskRCNNCost)
	slow := NewFlaky(oracle, FlakyConfig{Seed: 1, Latency: 30 * time.Millisecond})
	b := NewBreaker(slow, BreakerPolicy{FailureThreshold: 1, Cooldown: time.Nanosecond})
	// Trip it.
	slow.cfg.TransientRate = 1
	if _, err := b.Label(0); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	slow.cfg.TransientRate = 0
	time.Sleep(time.Millisecond) // cooldown elapses

	// Two concurrent calls: exactly one is admitted as the probe, the other
	// fails fast with ErrBreakerOpen.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = b.Label(1)
		}(i)
	}
	wg.Wait()
	var ok, rejected int
	for _, err := range errs {
		switch {
		case err == nil:
			ok++
		case errors.Is(err, ErrBreakerOpen):
			rejected++
		default:
			t.Fatalf("unexpected err %v", err)
		}
	}
	if ok != 1 || rejected != 1 {
		t.Fatalf("ok=%d rejected=%d, want one probe and one rejection", ok, rejected)
	}
}

func TestWithContextCancelsSampling(t *testing.T) {
	ds := videoDataset(t, 10)
	oracle := NewOracle(ds, "oracle", MaskRCNNCost)
	ctx, cancel := context.WithCancel(context.Background())
	lab := WithContext(ctx, oracle)
	if _, err := lab.Label(0); err != nil {
		t.Fatalf("pre-cancel: %v", err)
	}
	cancel()
	if _, err := lab.Label(1); !errors.Is(err, context.Canceled) {
		t.Fatalf("post-cancel err = %v", err)
	}
}

// TestChaosMiddlewareComposition drives the full canonical chain —
// Retry(Breaker(Deadline(Flaky(oracle)))) — at a high fault rate and checks
// every record still labels correctly with bounded attempts.
func TestChaosMiddlewareComposition(t *testing.T) {
	ds := videoDataset(t, 40)
	oracle := NewOracle(ds, "oracle", MaskRCNNCost)
	flaky := NewFlaky(oracle, FlakyConfig{Seed: 5, TransientRate: 0.4, MaxConsecutive: 3})
	chain := NewRetry(
		NewBreaker(NewDeadline(flaky, time.Second), BreakerPolicy{FailureThreshold: 50}),
		RetryPolicy{MaxAttempts: 6, BaseDelay: time.Microsecond, Seed: 5},
	)
	for id := 0; id < 40; id++ {
		ann, err := chain.Label(id)
		if err != nil {
			t.Fatalf("record %d: %v", id, err)
		}
		if ann.(dataset.VideoAnnotation).Count("") != ds.Truth[id].(dataset.VideoAnnotation).Count("") {
			t.Fatalf("record %d: middleware corrupted the annotation", id)
		}
	}
	if chain.Retries() == 0 {
		t.Fatal("no retries at fault rate 0.4")
	}
}
