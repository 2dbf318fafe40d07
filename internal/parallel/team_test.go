package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitGoroutines polls until the goroutine count is back at or below want
// (exited goroutines are reaped asynchronously).
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines still running, want at most %d", runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestTeamRunsEveryItemOnce(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 4, 7} {
		team := NewTeam(workers)
		if got, want := team.Workers(), max(workers, 1); got != want {
			t.Fatalf("NewTeam(%d).Workers() = %d, want %d", workers, got, want)
		}
		// Worker-indexed scratch is written without synchronization: the
		// race detector fails this test if two goroutines ever share an
		// index.
		scratch := make([]int, team.Workers())
		for _, n := range []int{0, 1, 2, 3, 31, 32, 100} {
			hits := make([]int, n)
			for region := 0; region < 50; region++ {
				team.Run(n, func(w, i int) {
					scratch[w]++
					hits[i]++
				})
			}
			for i, h := range hits {
				if h != 50 {
					t.Fatalf("workers=%d n=%d: item %d ran %d times in 50 regions", workers, n, i, h)
				}
			}
		}
		team.Close()
	}
}

func TestTeamCloseReleasesGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 3; round++ {
		team := NewTeam(5)
		var sum atomic.Int64
		team.Run(64, func(_, i int) { sum.Add(int64(i)) })
		if sum.Load() != 64*63/2 {
			t.Fatalf("sum = %d", sum.Load())
		}
		if round == 1 {
			// Close must also collect helpers that have parked.
			waitParked(t, team)
		}
		team.Close()
	}
	waitGoroutines(t, before)
}

// waitParked waits until every helper has given up polling and sleeps.
func waitParked(t *testing.T, team *Team) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for int(team.sleepers.Load()) != team.helpers {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d helpers parked", team.sleepers.Load(), team.helpers)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestTeamParksThenWakes pins bounded polling: left idle, every helper
// sleeps (so an idle or leaked team costs no CPU), and a later region still
// reaches them.
func TestTeamParksThenWakes(t *testing.T) {
	team := NewTeam(3)
	defer team.Close()
	for round := 0; round < 5; round++ {
		waitParked(t, team)
		// Items that wait for each other can only finish if the sleeping
		// helpers are woken to run them.
		var arrived sync.WaitGroup
		arrived.Add(3)
		team.Run(3, func(_, _ int) {
			arrived.Done()
			arrived.Wait()
		})
	}
}

func TestTeamPanicSurfacesOnCaller(t *testing.T) {
	before := runtime.NumGoroutine()
	team := NewTeam(4)
	for _, bad := range []int{0, 17, 63} {
		got := func() (p any) {
			defer func() { p = recover() }()
			team.Run(64, func(_, i int) {
				if i == bad {
					panic(fmt.Sprintf("item %d", i))
				}
			})
			return nil
		}()
		if got != fmt.Sprintf("item %d", bad) {
			t.Fatalf("Run recovered %v, want the panic of item %d", got, bad)
		}
		// The team survives a panicked region.
		var n atomic.Int64
		team.Run(10, func(_, _ int) { n.Add(1) })
		if n.Load() != 10 {
			t.Fatalf("region after panic ran %d of 10 items", n.Load())
		}
	}
	team.Close()
	waitGoroutines(t, before)
}

func TestTeamsAreIndependent(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			team := NewTeam(3)
			defer team.Close()
			out := make([]int, 40)
			for region := 0; region < 200; region++ {
				team.Run(len(out), func(_, i int) { out[i] += i })
			}
			for i, v := range out {
				if v != 200*i {
					t.Errorf("team %d: out[%d] = %d, want %d", g, i, v, 200*i)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// spinWork burns roughly a fixed amount of CPU per item.
func spinWork(_, i int) {
	x := uint64(i) | 1
	for k := 0; k < 20000; k++ {
		x = x*6364136223846793005 + 1442695040888963407
	}
	sink.Store(x)
}

var sink atomic.Uint64

// TestTeamOversubscribedStaysNearSerial pins the cost of asking for more
// workers than there are CPUs: with one P, a team of four must finish in
// about the time one worker takes — the helpers may not poll the only CPU
// away from the goroutine that has the work.
func TestTeamOversubscribedStaysNearSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	run := func(workers int) time.Duration {
		team := NewTeam(workers)
		defer team.Close()
		start := time.Now()
		for region := 0; region < 1500; region++ {
			team.Run(8, spinWork)
		}
		return time.Since(start)
	}
	run(1) // warm up
	serial, team := run(1), run(4)
	t.Logf("1 worker %v, 4 workers on one P %v", serial, team)
	if team > 2*serial+100*time.Millisecond {
		t.Errorf("4 workers on one P took %v, over twice the 1-worker %v", team, serial)
	}
}
