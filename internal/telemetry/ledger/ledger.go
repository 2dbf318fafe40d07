// Package ledger attributes query cost to the request that incurred it.
//
// The telemetry registry (PR 3) answers "how many oracle labels has this
// process spent"; the ledger answers "which tenant spent them, on which
// query, and what did that query touch". It is the accounting substrate for
// a global label-budget manager with per-tenant admission (ROADMAP item 2):
// admission control needs per-tenant running totals it can trust, so the
// ledger maintains a conservation invariant — the per-tenant totals and the
// global total are updated under one lock, from one Entry, and therefore
// always reconcile exactly. CheckConservation verifies it on demand and the
// /admin/ledger endpoint exposes both sides so an operator (or a test) can
// audit the books.
//
// Like the rest of the telemetry layer the ledger is record-only: nothing
// reads it on a query path, so enabling or disabling it cannot change any
// result bit.
package ledger

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// Entry is the cost record for one finished request.
type Entry struct {
	Tenant  string        `json:"tenant"`
	Kind    string        `json:"kind"` // route label: query/aggregate, ingest, ...
	TraceID string        `json:"trace_id,omitempty"`
	Labels  int64         `json:"labels"`  // oracle labels spent
	Records int64         `json:"records"` // records propagated (queries) or appended (ingest)
	Hits    int64         `json:"hits"`    // label calls answerable from already-annotated records
	WallNS  int64         `json:"wall_ns"` // request wall time
	Status  int           `json:"status"`  // HTTP status of the response
	When    time.Time     `json:"when"`    // completion time
	Wall    time.Duration `json:"-"`       // convenience mirror of WallNS for writers
}

// Totals is the rolled-up spend for one tenant (or the whole process).
type Totals struct {
	Requests int64 `json:"requests"`
	Labels   int64 `json:"labels"`
	Records  int64 `json:"records"`
	Hits     int64 `json:"hits"`
	WallNS   int64 `json:"wall_ns"`
}

func (t *Totals) add(e Entry) {
	t.Requests++
	t.Labels += e.Labels
	t.Records += e.Records
	t.Hits += e.Hits
	t.WallNS += e.WallNS
}

// TenantTotals pairs a tenant name with its totals for sorted snapshots.
type TenantTotals struct {
	Tenant string `json:"tenant"`
	Totals
}

// Snapshot is the /admin/ledger payload: the global books, the per-tenant
// breakdown (sorted by label spend, heaviest first), the most recent
// entries, and the conservation check result.
type Snapshot struct {
	Global       Totals         `json:"global"`
	Tenants      []TenantTotals `json:"tenants"`
	Recent       []Entry        `json:"recent"`
	RecentCap    int            `json:"recent_cap"`
	Conservation string         `json:"conservation"` // "ok" or the violation
}

// Ledger is the process-wide cost ledger. A nil *Ledger no-ops on every
// method, matching the telemetry layer's nil-safety convention.
type Ledger struct {
	mu      sync.Mutex
	global  Totals
	tenants map[string]*Totals
	recent  []Entry // ring, recentN entries back from recentNext
	next    int
	filled  bool
}

// DefaultRecent is the default size of the recent-entries ring.
const DefaultRecent = 256

// New returns a ledger retaining the last recent entries
// (recent < 1 is clamped to DefaultRecent).
func New(recent int) *Ledger {
	if recent < 1 {
		recent = DefaultRecent
	}
	return &Ledger{
		tenants: make(map[string]*Totals),
		recent:  make([]Entry, recent),
	}
}

// Record books one finished request. Empty tenants are booked under
// "default" so the per-tenant sum always covers every entry.
func (l *Ledger) Record(e Entry) {
	if l == nil {
		return
	}
	if e.Tenant == "" {
		e.Tenant = "default"
	}
	if e.WallNS == 0 && e.Wall != 0 {
		e.WallNS = e.Wall.Nanoseconds()
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	t := l.tenants[e.Tenant]
	if t == nil {
		t = &Totals{}
		l.tenants[e.Tenant] = t
	}
	// Both sides of the invariant move under the same lock, from the same
	// entry: conservation holds by construction.
	t.add(e)
	l.global.add(e)
	l.recent[l.next] = e
	l.next++
	if l.next == len(l.recent) {
		l.next = 0
		l.filled = true
	}
}

// Global returns the process-wide totals.
func (l *Ledger) Global() Totals {
	if l == nil {
		return Totals{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.global
}

// Tenant returns one tenant's totals (zero if never seen).
func (l *Ledger) Tenant(name string) Totals {
	if l == nil {
		return Totals{}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if t := l.tenants[name]; t != nil {
		return *t
	}
	return Totals{}
}

// CheckConservation re-sums the per-tenant books and compares them against
// the global totals, field by field. Returns nil when they reconcile.
func (l *Ledger) CheckConservation() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.checkLocked()
}

func (l *Ledger) checkLocked() error {
	var sum Totals
	for _, t := range l.tenants {
		sum.Requests += t.Requests
		sum.Labels += t.Labels
		sum.Records += t.Records
		sum.Hits += t.Hits
		sum.WallNS += t.WallNS
	}
	if sum != l.global {
		return fmt.Errorf("ledger conservation violated: tenant sum %+v != global %+v", sum, l.global)
	}
	return nil
}

// Snapshot returns the full books for /admin/ledger. Recent entries come
// back newest first; tenants are sorted by label spend descending, name
// ascending on ties, so the heaviest spender leads the admission report.
func (l *Ledger) Snapshot() Snapshot {
	if l == nil {
		return Snapshot{Conservation: "ok"}
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Snapshot{Global: l.global, RecentCap: len(l.recent), Conservation: "ok"}
	if err := l.checkLocked(); err != nil {
		s.Conservation = err.Error()
	}
	for name, t := range l.tenants {
		s.Tenants = append(s.Tenants, TenantTotals{Tenant: name, Totals: *t})
	}
	sort.Slice(s.Tenants, func(i, j int) bool {
		if s.Tenants[i].Labels != s.Tenants[j].Labels {
			return s.Tenants[i].Labels > s.Tenants[j].Labels
		}
		return s.Tenants[i].Tenant < s.Tenants[j].Tenant
	})
	n := l.next
	if l.filled {
		n = len(l.recent)
	}
	s.Recent = make([]Entry, 0, n)
	for i := 0; i < n; i++ {
		idx := l.next - 1 - i
		if idx < 0 {
			idx += len(l.recent)
		}
		s.Recent = append(s.Recent, l.recent[idx])
	}
	return s
}
