package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/labeler"
)

// RunFaults is the robustness experiment (not in the paper): it measures
// what labeler faults cost during index construction. A TASTI-T index is
// built fault-free, then rebuilt through a fault-injecting labeler with
// retry middleware at Scale.FaultRate (default 0.2); the retried build must
// reach the identical index, and the report prices the recovery: extra
// target-labeler invocations, backoff wall-clock, and the resulting
// simulated-cost inflation. A final burst drives the serve-path circuit
// breaker through a sustained outage and reports trips and fast-fail
// rejections.
func RunFaults(sc Scale, w io.Writer) (*Report, error) {
	rate := sc.FaultRate
	if rate <= 0 {
		rate = 0.2
	}
	rep := &Report{ID: "faults", Title: fmt.Sprintf("construction cost under labeler faults, night-street (transient rate %.2f)", rate)}
	s, err := SettingByKey("night-street")
	if err != nil {
		return nil, err
	}
	env, err := NewEnv(s, sc)
	if err != nil {
		return nil, err
	}

	// Baseline: fault-free build. The experiment compares built indexes, so
	// it keeps core's, unserved.
	cfg := env.IndexConfig(TastiT)
	clean, err := core.Build(cfg, env.DS, env.Oracle)
	if err != nil {
		return nil, err
	}
	cleanCalls := clean.Stats.TotalLabelCalls()
	rep.Add(s.Key, "fault-free", "label calls", float64(cleanCalls), "")
	rep.Add(s.Key, "fault-free", "target s", float64(cleanCalls)*s.TargetCost.Seconds, "simulated")

	// Faulty build with retry middleware: every transient fault costs a
	// retried invocation, never the index.
	flaky := labeler.NewFlaky(env.Oracle, labeler.FlakyConfig{
		Seed:           sc.Seed + 100,
		TransientRate:  rate,
		MaxConsecutive: 3,
	})
	fcfg := cfg
	fcfg.Retry = labeler.DefaultRetryPolicy(sc.Seed)
	fcfg.Retry.BaseDelay = 0 // price retries in invocations, not sleep
	faulty, err := core.Build(fcfg, env.DS, flaky)
	if err != nil {
		return nil, fmt.Errorf("experiments: faulty build: %w", err)
	}
	if !sameIndex(clean, faulty) {
		return nil, fmt.Errorf("experiments: retried build diverged from the fault-free index")
	}
	retries := faulty.Stats.LabelRetries
	billed := faulty.Stats.TotalLabelCalls() + retries
	method := fmt.Sprintf("faulty+retry @%.2f", rate)
	rep.Add(s.Key, method, "label calls", float64(faulty.Stats.TotalLabelCalls()), "identical index, verified")
	rep.Add(s.Key, method, "retries", float64(retries), "extra invocations recovering faults")
	rep.Add(s.Key, method, "target s", float64(billed)*s.TargetCost.Seconds, "simulated, retries billed")
	rep.Add(s.Key, method, "cost inflation", float64(billed)/float64(cleanCalls), "billed calls / fault-free calls")

	// Degraded build: a handful of records are permanently unlabelable; the
	// index completes without them instead of failing.
	permanent := append([]int(nil), clean.Table.Reps[:3]...)
	dflaky := labeler.NewFlaky(env.Oracle, labeler.FlakyConfig{Seed: sc.Seed + 101, PermanentIDs: permanent})
	dcfg := cfg
	dcfg.AllowDegraded = true
	degraded, err := core.Build(dcfg, env.DS, dflaky)
	if err != nil {
		return nil, fmt.Errorf("experiments: degraded build: %w", err)
	}
	rep.Add(s.Key, "degraded", "dropped reps", float64(len(degraded.Stats.DegradedReps)),
		fmt.Sprintf("%d injected permanent failures", len(permanent)))
	rep.Add(s.Key, "degraded", "live reps", float64(len(degraded.Table.Reps)), "")

	// Circuit breaker under a sustained outage: hammer the tier at a 95%
	// fault rate (unbounded streaks) and count trips and fast-fail
	// rejections — the calls an open circuit spares the struggling tier.
	outage := labeler.NewFlaky(env.Oracle, labeler.FlakyConfig{Seed: sc.Seed + 102, TransientRate: 0.95})
	breaker := labeler.NewBreaker(outage, labeler.BreakerPolicy{
		FailureThreshold: 5,
		Cooldown:         time.Millisecond,
	})
	pol := labeler.DefaultRetryPolicy(sc.Seed)
	pol.BaseDelay = 0
	retry := labeler.NewRetry(breaker, pol)
	served := 0
	for id := 0; id < 200; id++ {
		if _, err := retry.Label(id); err == nil {
			served++
		}
	}
	rep.Add(s.Key, "breaker @0.95", "served", float64(served), "of 200 calls during the outage")
	rep.Add(s.Key, "breaker @0.95", "trips", float64(breaker.Trips()), "circuit openings")
	rep.Add(s.Key, "breaker @0.95", "rejected", float64(breaker.Rejected()), "fast-failed, tier spared")

	if w != nil {
		rep.Print(w)
	}
	return rep, nil
}

// sameIndex checks bitwise equality of what queries observe: the
// representative set, every neighbor list, and every annotation key.
func sameIndex(a, b *core.Index) bool {
	if len(a.Table.Reps) != len(b.Table.Reps) || len(a.Annotations) != len(b.Annotations) {
		return false
	}
	for i, rep := range a.Table.Reps {
		if b.Table.Reps[i] != rep {
			return false
		}
	}
	for i, nbrs := range a.Table.Neighbors {
		if len(b.Table.Neighbors[i]) != len(nbrs) {
			return false
		}
		for j, nb := range nbrs {
			if b.Table.Neighbors[i][j] != nb {
				return false
			}
		}
	}
	for id := range a.Annotations {
		if _, ok := b.Annotations[id]; !ok {
			return false
		}
	}
	return true
}
