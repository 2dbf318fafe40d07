package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"
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
// hands them one region at a time. A region allocates nothing: the Team
// reuses one set of region fields.
//
// The caller is worker 0 and works every region itself; NewTeam(w) starts
// w-1 helpers. Items are claimed through an atomic counter, so which worker
// runs which item is nondeterministic: fn must write only state owned by
// item i (plus scratch owned by the worker index it is handed). Run is not
// safe for concurrent use — a Team has one owner — but distinct Teams are
// independent. Close must be called to release the helpers.
type Team struct {
	helpers  int
	closed   atomic.Bool
	mu       sync.Mutex
	wake     *sync.Cond // signalled, under mu, when gen or closed changes
	sleepers atomic.Int32
	wg       sync.WaitGroup

	// gen is odd while a region is open to helpers and even between
	// regions. A helper joins by raising inside and then seeing gen still
	// at the odd value it read; Run writes the region fields only once gen
	// is even and inside is zero, so no helper reads them then.
	gen atomic.Uint64

	// The current region: n items claimed through next, left counting
	// down to the token on done. The counters every item writes sit on
	// cache lines of their own, away from gen, which idle helpers poll.
	fn       func(worker, i int)
	n        int64
	done     chan struct{} // one token per region, from whoever ends its last item
	_        [64]byte
	next     atomic.Int64
	left     atomic.Int64
	panicked atomic.Pointer[any]
	_        [64]byte
	inside   atomic.Int32
	_        [60]byte
}

// NewTeam starts a team of the given total worker count (the caller
// included; counts below 2 start no goroutines and Run degenerates to a
// plain loop).
func NewTeam(workers int) *Team {
	t := &Team{helpers: max(workers, 1) - 1, done: make(chan struct{}, 1)}
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
// skipped. The Team holds fn until the next Run.
func (t *Team) Run(n int, fn func(worker, i int)) {
	if n <= 0 {
		return
	}
	if t.helpers == 0 || n == 1 {
		for i := 0; i < n; i++ {
			fn(0, i)
		}
		return
	}
	// The last region closed when its Run returned; a helper that joined
	// it may still be on its way out.
	for t.inside.Load() != 0 {
		runtime.Gosched()
	}
	t.fn, t.n = fn, int64(n)
	t.next.Store(0)
	t.left.Store(int64(n))
	t.panicked.Store(nil)
	t.gen.Add(1) // open
	// A helper raises sleepers before its last look at gen, and this load
	// follows the store above, so either it sees the new region or we see
	// it asleep (or about to be: Broadcast then waits for mu, which the
	// helper holds until it is inside Wait).
	if t.sleepers.Load() > 0 {
		t.mu.Lock()
		t.wake.Broadcast()
		t.mu.Unlock()
	}
	t.work(0)
	spinUntil(func() bool { return len(t.done) > 0 })
	<-t.done
	t.gen.Add(1) // closed
	if p := t.panicked.Load(); p != nil {
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
	var last uint64
	for {
		changed := func() bool {
			g := t.gen.Load()
			return g&1 == 1 && g != last || t.closed.Load()
		}
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
		last = t.gen.Load()
		t.inside.Add(1)
		if last&1 == 1 && t.gen.Load() == last {
			t.work(w)
		}
		t.inside.Add(-1)
	}
}

// work claims and runs items until none are left. A helper arriving after
// the region has drained claims nothing.
func (t *Team) work(w int) {
	for {
		i := t.next.Add(1) - 1
		if i >= t.n {
			return
		}
		t.item(w, int(i))
	}
}

func (t *Team) item(w, i int) {
	defer func() {
		if p := recover(); p != nil {
			first := p // a copy, so only a panicking item pays for the escape
			t.panicked.CompareAndSwap(nil, &first)
		}
		if t.left.Add(-1) == 0 {
			t.done <- struct{}{}
		}
	}()
	if t.panicked.Load() == nil {
		t.fn(w, i)
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
