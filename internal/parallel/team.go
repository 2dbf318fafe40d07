package parallel

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// teamSpin is how long a team member polls before it parks: a helper for
// the next region, the caller for the last item of the current one. A
// training step is three regions of tens to hundreds of microseconds with a
// few microseconds of serial work between them, and waking a parked thread
// costs about as much as a whole region, so a helper must still be polling
// when the next region is published. The bound is what keeps a team from
// burning a core it is not using: past it a member sleeps on a condition
// variable (or the region's done channel) and costs nothing until woken.
// Measured on a 2-vCPU VM when a step was two regions, the 4000-step
// triplet train at two workers (2.6 s at one): 2.0 s with no polling or
// 10 µs of it, 1.5 s at 100 µs, 1.5 s at 1 ms.
const teamSpin = 100 * time.Microsecond

// Team is a fixed set of workers for a caller that runs thousands of short
// parallel regions back to back (one minibatch step of internal/nn is three).
// forGrid starts its goroutines per region, which is right for regions of
// milliseconds and up; at sub-millisecond regions the start-and-join cost
// dominates, so a Team keeps its goroutines for its whole lifetime and
// hands them one region at a time.
//
// The caller is worker 0 and works every region itself; NewTeam(w) starts
// w-1 helpers. Items are claimed through an atomic counter, so which worker
// runs which item is nondeterministic: fn must write only state owned by
// item i (plus scratch owned by the worker index it is handed). Run is not
// safe for concurrent use — a Team has one owner — but distinct Teams are
// independent. Close must be called to release the helpers.
type Team struct {
	helpers  int
	cur      atomic.Pointer[region]
	closed   atomic.Bool
	mu       sync.Mutex
	wake     *sync.Cond // signalled, under mu, when cur or closed changes
	sleepers atomic.Int32
	wg       sync.WaitGroup
}

// region is one Run: n items claimed through next, left counting down to
// the close of done.
type region struct {
	fn       func(worker, i int)
	n        int64
	next     atomic.Int64
	left     atomic.Int64
	done     chan struct{}
	panicked atomic.Pointer[any]
	busy     *telemetry.Gauge // nil (a no-op) when telemetry is off
}

// NewTeam starts a team of the given total worker count (the caller
// included; counts below 2 start no goroutines and Run degenerates to a
// plain loop).
func NewTeam(workers int) *Team {
	t := &Team{helpers: max(workers, 1) - 1}
	t.wake = sync.NewCond(&t.mu)
	t.wg.Add(t.helpers)
	for w := 1; w <= t.helpers; w++ {
		go t.help(w)
	}
	return t
}

// Workers returns the team size, caller included: fn's worker argument is
// always in [0, Workers()).
func (t *Team) Workers() int { return t.helpers + 1 }

// Run calls fn(worker, i) once for every i in [0, n) and returns when all
// calls have. A panic in any call — on whichever goroutine — is re-raised
// here once the region has drained; the remaining items of that region are
// skipped.
func (t *Team) Run(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	var busy *telemetry.Gauge
	if m := metrics.Load(); m != nil {
		m.batches.Inc()
		m.chunks.Add(int64(n))
		busy = m.busy
	}
	if t.helpers == 0 || n == 1 {
		busy.Inc()
		defer busy.Dec()
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	r := &region{fn: fn, n: int64(n), done: make(chan struct{}), busy: busy}
	r.left.Store(int64(n))
	t.cur.Store(r)
	// A helper raises sleepers before its last look at cur, and this load
	// follows the store above, so either it sees the new region or we see
	// it asleep (or about to be: Broadcast then waits for mu, which the
	// helper holds until it is inside Wait).
	if t.sleepers.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
	r.work(0)
	if !spinUntil(func() bool { return r.left.Load() == 0 }) {
		<-r.done
	}
	if p := r.panicked.Load(); p != nil {
		panic(*p)
	}
}

// Close stops the helpers and waits for them to exit. The Team must not be
// used afterwards.
func (t *Team) Close() {
	t.closed.Store(true)
	t.mu.Lock()
	t.wake.Broadcast()
	t.mu.Unlock()
	t.wg.Wait()
}

func (t *Team) help(w int) {
	defer t.wg.Done()
	var last *region
	for {
		changed := func() bool { return t.cur.Load() != last || t.closed.Load() }
		if !spinUntil(changed) {
			t.mu.Lock()
			t.sleepers.Add(1)
			for !changed() {
				t.wake.Wait()
			}
			t.sleepers.Add(-1)
			t.mu.Unlock()
		}
		if t.closed.Load() {
			return
		}
		last = t.cur.Load()
		last.work(w)
	}
}

// work claims and runs items until none are left. A helper arriving after
// the region has drained claims nothing.
func (r *region) work(w int) {
	if r.next.Load() >= r.n {
		return
	}
	r.busy.Inc()
	defer r.busy.Dec()
	for {
		i := r.next.Add(1) - 1
		if i >= r.n {
			return
		}
		r.item(w, int(i))
	}
}

func (r *region) item(w, i int) {
	defer func() {
		if p := recover(); p != nil {
			first := p // a copy, so only a panicking item pays for the escape
			r.panicked.CompareAndSwap(nil, &first)
		}
		if r.left.Add(-1) == 0 {
			close(r.done)
		}
	}()
	if r.panicked.Load() == nil {
		r.fn(w, i)
	}
}

// spinUntil polls cond for at most teamSpin and reports whether it held.
func spinUntil(cond func() bool) bool {
	if cond() {
		return true
	}
	for start := time.Now(); time.Since(start) < teamSpin; {
		if cond() {
			return true
		}
	}
	return cond()
}
