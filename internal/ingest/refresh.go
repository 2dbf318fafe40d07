package ingest

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/dataset"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// ErrRefreshInProgress is returned when a refresh is already running; the
// caller just waits for it rather than queueing another.
var ErrRefreshInProgress = errors.New("ingest: refresh already in progress")

// RefreshConfig wires a Refresher to the serving index it refreshes.
type RefreshConfig struct {
	// Index is the live serving index. The refresher ranks candidates on a
	// pinned version of it and cracks them into it — the same write every
	// query-time crack takes.
	Index *shard.Index
	// Label produces the ground-truth annotation for a record — the target
	// labeler (oracle) lookup. It runs beside queries and ingest, and must be
	// safe to. Record IDs passed are stable because IDs are append-only.
	Label func(ctx context.Context, id int) (dataset.Annotation, error)
	// Drift, when non-nil, is reset to the refreshed index's baseline after
	// a successful refresh.
	Drift *DriftDetector
	// Budget bounds how many appended records one refresh cracks in as new
	// representatives (<= 0: 32).
	Budget int
	// Since is the record count at index build: records with id >= Since
	// arrived by ingest and are refresh candidates until annotated.
	Since int
	// Telemetry receives the tasti_refresh_* metrics (nil disables).
	Telemetry *telemetry.Registry
}

// DefaultRefreshBudget bounds representative growth per refresh.
const DefaultRefreshBudget = 32

// RefreshStats reports one refresh.
type RefreshStats struct {
	// Cracked is the number of new representatives added.
	Cracked int
	// Baseline is the refreshed index's mean nearest-representative
	// distance — the drift detector's new denominator.
	Baseline float64
	Elapsed  time.Duration
}

// Refresher rebuilds representative coverage online, without blocking
// queries or ingest while it labels:
//
//  1. Pin the live index's published version and rank the un-annotated
//     appended records by nearest-representative distance — the records the
//     current representatives cover worst. A version is immutable, so this
//     takes no lock.
//  2. Label the worst-covered candidates, up to the budget. Queries, cracks
//     and appends keep landing on the live index the whole time.
//  3. Crack them into the live index, worst-covered first, and refit the
//     quantized plane, as one copy-on-write batch
//     (shard.Index.CrackAndRequantize). Appends and query-time
//     cracks queue behind that write like behind any other, so nothing that
//     landed during step 2 is lost; a candidate some query cracked meanwhile
//     is skipped like any already-annotated record.
//
// Queries never observe a partial refresh: a request reads the version it
// pinned — the old state before the publish, the new one after.
type Refresher struct {
	cfg     RefreshConfig
	running atomic.Bool

	mRefreshes *telemetry.Counter
	mFailed    *telemetry.Counter
	mCracked   *telemetry.Counter
	gRunning   *telemetry.Gauge
	hSeconds   *telemetry.Histogram
}

// NewRefresher validates the wiring and builds a Refresher.
func NewRefresher(cfg RefreshConfig) (*Refresher, error) {
	if cfg.Index == nil || cfg.Label == nil {
		return nil, errors.New("ingest: RefreshConfig requires Index and Label")
	}
	if cfg.Budget <= 0 {
		cfg.Budget = DefaultRefreshBudget
	}
	r := &Refresher{cfg: cfg}
	if reg := cfg.Telemetry; reg != nil {
		r.mRefreshes = reg.Counter("tasti_refresh_total")
		r.mFailed = reg.Counter("tasti_refresh_failed_total")
		r.mCracked = reg.Counter("tasti_refresh_cracked_total")
		r.gRunning = reg.Gauge("tasti_refresh_running")
		r.hSeconds = reg.Histogram("tasti_refresh_seconds", telemetry.DefLatencyBuckets)
	}
	return r, nil
}

// Running reports whether a refresh is in flight.
func (r *Refresher) Running() bool { return r.running.Load() }

// candidate is an appended record ranked by how badly the current
// representative set covers it.
type candidate struct {
	id   int
	dist float64
}

// Refresh runs one refresh cycle. Only one runs at a time; a second call
// returns ErrRefreshInProgress immediately.
func (r *Refresher) Refresh(ctx context.Context) (RefreshStats, error) {
	if !r.running.CompareAndSwap(false, true) {
		return RefreshStats{}, ErrRefreshInProgress
	}
	defer r.running.Store(false)
	r.gRunning.Set(1)
	defer r.gRunning.Set(0)
	start := time.Now()
	st, err := r.refresh(ctx)
	st.Elapsed = time.Since(start)
	if err != nil {
		r.mFailed.Inc()
		return st, err
	}
	r.mRefreshes.Inc()
	r.mCracked.Add(int64(st.Cracked))
	r.hSeconds.Observe(st.Elapsed.Seconds())
	return st, nil
}

func (r *Refresher) refresh(ctx context.Context) (RefreshStats, error) {
	var st RefreshStats
	ix := r.cfg.Index

	// Pick candidates from the pinned version.
	pinned := ix.Pin()
	var cands []candidate
	for id, n := r.cfg.Since, pinned.NumRecords(); id < n; id++ {
		if !pinned.Annotated(id) {
			cands = append(cands, candidate{id: id, dist: pinned.NearestDistance(id)})
		}
	}

	// Worst-covered first; ties by ID for determinism.
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist > cands[j].dist
		}
		return cands[i].id < cands[j].id
	})
	if len(cands) > r.cfg.Budget {
		cands = cands[:r.cfg.Budget]
	}

	// Label the candidates off the write path, then crack them into the live
	// index worst-covered first, as one batch.
	ids := make([]int, len(cands))
	anns := make(map[int]dataset.Annotation, len(cands))
	for i, c := range cands {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		ann, err := r.cfg.Label(ctx, c.id)
		if err != nil {
			return st, fmt.Errorf("ingest: refresh labeling record %d: %w", c.id, err)
		}
		ids[i], anns[c.id] = c.id, ann
	}
	// Refit the quantized scan plane in the same write: drifted appends
	// quantized under stale build params widen the plane's pruning bound, and
	// retraining over the current rows restores a tight grid without
	// changing any result.
	st.Cracked = ix.CrackAndRequantize(ids, anns)

	st.Baseline = ix.Pin().MeanNearestDistance()
	if r.cfg.Drift != nil {
		r.cfg.Drift.Reset(st.Baseline)
	}
	return st, nil
}
