package ledger

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestLedgerBooksBothSides(t *testing.T) {
	l := New(8)
	l.Record(Entry{Tenant: "a", Kind: "query/aggregate", Labels: 100, Records: 1000, Wall: time.Millisecond})
	l.Record(Entry{Tenant: "a", Kind: "query/select", Labels: 50, Records: 1000})
	l.Record(Entry{Tenant: "b", Kind: "ingest", Records: 16, Hits: 2})

	if got := l.Tenant("a"); got.Requests != 2 || got.Labels != 150 || got.Records != 2000 {
		t.Errorf("tenant a totals = %+v", got)
	}
	if got := l.Tenant("b"); got.Requests != 1 || got.Records != 16 || got.Hits != 2 {
		t.Errorf("tenant b totals = %+v", got)
	}
	if got := l.Global(); got.Requests != 3 || got.Labels != 150 || got.Records != 2016 {
		t.Errorf("global totals = %+v", got)
	}
	if err := l.CheckConservation(); err != nil {
		t.Errorf("conservation: %v", err)
	}
	if got := l.Tenant("a").WallNS; got != time.Millisecond.Nanoseconds() {
		t.Errorf("Wall convenience field not booked: %d", got)
	}
}

func TestLedgerEmptyTenantDefaults(t *testing.T) {
	l := New(4)
	l.Record(Entry{Kind: "query/limit", Labels: 7})
	if got := l.Tenant("default"); got.Labels != 7 {
		t.Errorf("empty tenant not booked under default: %+v", got)
	}
}

func TestLedgerSnapshotOrderAndRecent(t *testing.T) {
	l := New(4)
	for i := 0; i < 10; i++ {
		l.Record(Entry{Tenant: fmt.Sprintf("t%d", i%3), Kind: "query/aggregate", Labels: int64(i), TraceID: fmt.Sprintf("id-%d", i)})
	}
	s := l.Snapshot()
	if s.Conservation != "ok" {
		t.Errorf("conservation = %q", s.Conservation)
	}
	// Tenants sorted by label spend descending: t2 spent 2+5+8=15, t0 0+3+6+9=18, t1 1+4+7=12.
	if len(s.Tenants) != 3 || s.Tenants[0].Tenant != "t0" || s.Tenants[1].Tenant != "t2" || s.Tenants[2].Tenant != "t1" {
		t.Errorf("tenant order wrong: %+v", s.Tenants)
	}
	// Recent keeps the last 4 entries, newest first.
	if len(s.Recent) != 4 || s.RecentCap != 4 {
		t.Fatalf("recent = %d entries cap %d, want 4/4", len(s.Recent), s.RecentCap)
	}
	for i, e := range s.Recent {
		if want := fmt.Sprintf("id-%d", 9-i); e.TraceID != want {
			t.Errorf("recent[%d] = %q, want %q", i, e.TraceID, want)
		}
	}
}

func TestLedgerNilSafe(t *testing.T) {
	var l *Ledger
	l.Record(Entry{Tenant: "x", Labels: 1})
	if l.Global() != (Totals{}) || l.Tenant("x") != (Totals{}) {
		t.Error("nil ledger not inert")
	}
	if err := l.CheckConservation(); err != nil {
		t.Errorf("nil conservation: %v", err)
	}
	if s := l.Snapshot(); s.Conservation != "ok" || len(s.Tenants) != 0 {
		t.Errorf("nil snapshot: %+v", s)
	}
}

func TestLedgerConcurrentConservation(t *testing.T) {
	l := New(64)
	var wg sync.WaitGroup
	const goroutines, perG = 16, 500
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			tenant := fmt.Sprintf("tenant-%d", g%5)
			for i := 0; i < perG; i++ {
				l.Record(Entry{
					Tenant:  tenant,
					Kind:    "query/aggregate",
					Labels:  int64(i % 11),
					Records: int64(i),
				})
				if i%37 == 0 {
					if err := l.CheckConservation(); err != nil {
						t.Error(err)
						return
					}
					l.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	if err := l.CheckConservation(); err != nil {
		t.Fatal(err)
	}
	g := l.Global()
	if g.Requests != goroutines*perG {
		t.Errorf("global requests = %d, want %d", g.Requests, goroutines*perG)
	}
	var perGLabels int64
	for i := 0; i < perG; i++ {
		perGLabels += int64(i % 11)
	}
	if want := perGLabels * goroutines; g.Labels != want {
		t.Errorf("global labels = %d, want %d", g.Labels, want)
	}
}
