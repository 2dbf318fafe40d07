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
	// Index is the live serving index. The refresher reads a pinned version
	// of it and publishes the refreshed state through its Swap — the same
	// write path every append and crack takes.
	Index *shard.Index
	// Label produces the ground-truth annotation for a record — the target
	// labeler (oracle) lookup. It runs beside queries and ingest, and must be
	// safe to. Record IDs passed are stable because IDs are append-only.
	Label func(ctx context.Context, id int) (dataset.Annotation, error)
	// Drift, when non-nil, is reset to the refreshed index's baseline after
	// a successful swap.
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
	// CatchUp is the number of records that arrived while the clone was being
	// cracked and were re-appended to it before the swap.
	CatchUp int
	// Baseline is the refreshed index's mean nearest-representative
	// distance — the drift detector's new denominator.
	Baseline float64
	Elapsed  time.Duration
}

// Refresher rebuilds representative coverage online, without blocking
// queries or ingest while it labels and cracks:
//
//  1. Pin the live index's published version, deep-Clone it, and collect the
//     farthest un-annotated appended records (by nearest-representative
//     distance — the records the current representatives cover worst). A
//     version is immutable, so this takes no lock.
//  2. Label each candidate and crack it into the clone. Queries and appends
//     keep landing on the live index the whole time.
//  3. Swap: as one write on the live index, records that streamed in during
//     step 2 are copied (already-embedded) from the then-live version into
//     the clone and scanned against the clone's refreshed representatives,
//     and the clone's state is published. Appends queue behind that write
//     like behind any other, so none is lost between catch-up and publish.
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

	// Phase 1: clone the pinned version and pick candidates from it.
	pinned := r.cfg.Index.Pin()
	clone := pinned.Clone()
	n0 := pinned.NumRecords()
	var cands []candidate
	for id := r.cfg.Since; id < n0; id++ {
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

	// Phase 2: label the candidates, then crack them into the clone
	// worst-covered first, as one batch.
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
	clone.CrackInOrder(ids, anns)
	st.Cracked = len(ids)
	// Refit the quantized scan plane (no-op when the index runs float-only).
	// Drifted appends quantized under stale build params widen the plane's
	// pruning bound; retraining over the clone's current rows restores a
	// tight grid without changing any result.
	clone.Requantize()

	// Phase 3: catch up on records appended meanwhile and publish, as one
	// write on the live index. The catch-up rows keep their already-computed
	// embeddings and are scanned against the clone's refreshed representative
	// set — exactly the state cracking first and appending after would have
	// produced.
	err := r.cfg.Index.Swap(func(live *shard.Version) (*shard.Index, error) {
		if n := live.NumRecords(); n > n0 {
			rows := make([][]float64, 0, n-n0)
			for id := n0; id < n; id++ {
				rows = append(rows, live.EmbeddingRow(id))
			}
			if _, err := clone.AppendEmbedded(rows); err != nil {
				return nil, fmt.Errorf("ingest: refresh catch-up: %w", err)
			}
			st.CatchUp = n - n0
		}
		st.Baseline = clone.Pin().MeanNearestDistance()
		// Re-baselined inside the write, so every append queued behind it is
		// observed against the refreshed representatives' baseline.
		if r.cfg.Drift != nil {
			r.cfg.Drift.Reset(st.Baseline)
		}
		return clone, nil
	})
	return st, err
}
