package ingest

import (
	"context"
	"errors"
	"sort"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/shard"
)

// refreshRig is a miniature of cmd/tastiserve's serving state: the one live
// index, and ground truth spanning built and appended records.
type refreshRig struct {
	ix   *shard.Index
	base *dataset.Dataset // built records
	ext  *dataset.Dataset // appended records (IDs offset by base.Len())
}

func newRefreshRig(t *testing.T, built, extra, shards int) *refreshRig {
	t.Helper()
	ds, err := dataset.Generate("night-street", built, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	core0, err := core.Build(core.PretrainedConfig(30, 2), ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	x, err := shard.Split(core0, shards)
	if err != nil {
		t.Fatal(err)
	}
	ext, err := dataset.Generate("night-street", extra, 7)
	if err != nil {
		t.Fatal(err)
	}
	return &refreshRig{ix: x, base: ds, ext: ext}
}

func (rig *refreshRig) label(_ context.Context, id int) (dataset.Annotation, error) {
	if id < rig.base.Len() {
		return rig.base.Truth[id], nil
	}
	return rig.ext.Truth[id-rig.base.Len()], nil
}

func (rig *refreshRig) config(drift *DriftDetector, budget int) RefreshConfig {
	return RefreshConfig{
		Index:  rig.ix,
		Label:  rig.label,
		Drift:  drift,
		Budget: budget,
		Since:  rig.base.Len(),
	}
}

// appendExt streams ext records [lo, hi) into the live index, the way the
// ingest apply loop does.
func (rig *refreshRig) appendExt(t *testing.T, lo, hi int) {
	t.Helper()
	features := make([][]float64, 0, hi-lo)
	for i := lo; i < hi; i++ {
		features = append(features, rig.ext.Records[i].Features)
	}
	if _, err := rig.ix.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshCracksWorstCovered pins the refresh contract: the budgeted
// refresh cracks exactly the worst-covered appended records into a clone and
// swaps it in without losing any records — and without touching the version
// that was published before it.
func TestRefreshCracksWorstCovered(t *testing.T) {
	rig := newRefreshRig(t, 250, 40, 2)
	rig.appendExt(t, 0, 40)
	old := rig.ix.Pin()
	n := old.NumRecords()
	repsBefore := old.RepCount()

	// Expected candidates: appended IDs by descending distance, ties by ID.
	type cand struct {
		id   int
		dist float64
	}
	var cands []cand
	for id := 250; id < n; id++ {
		cands = append(cands, cand{id, old.NearestDistance(id)})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].dist != cands[j].dist {
			return cands[i].dist > cands[j].dist
		}
		return cands[i].id < cands[j].id
	})

	drift := NewDriftDetector(8, 1.5, nil)
	drift.Reset(old.MeanNearestDistance())
	r, err := NewRefresher(rig.config(drift, 8))
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cur := rig.ix.Pin()
	if cur == old {
		t.Fatal("refresh did not publish a new version")
	}
	if st.Cracked != 8 || st.CatchUp != 0 {
		t.Fatalf("stats %+v", st)
	}
	if cur.NumRecords() != n {
		t.Fatalf("refresh changed record count %d -> %d", n, cur.NumRecords())
	}
	if got := cur.RepCount(); got != repsBefore+8 {
		t.Fatalf("RepCount = %d, want %d", got, repsBefore+8)
	}
	for i := 0; i < 8; i++ {
		if !cur.Annotated(cands[i].id) {
			t.Errorf("worst-covered record %d (dist %v) not cracked", cands[i].id, cands[i].dist)
		}
	}
	if drift.Baseline() != st.Baseline || st.Baseline <= 0 {
		t.Fatalf("drift baseline %v, stats baseline %v", drift.Baseline(), st.Baseline)
	}
	if _, err := cur.Propagate(core.CountScore("car")); err != nil {
		t.Fatalf("refreshed index does not serve: %v", err)
	}

	// The version pinned before the refresh still serves, with the
	// representatives it had — queries racing the swap were reading it the
	// whole time.
	if _, err := old.Propagate(core.CountScore("car")); err != nil {
		t.Fatalf("pre-refresh version broken by refresh: %v", err)
	}
	if got := old.RepCount(); got != repsBefore {
		t.Fatalf("pre-refresh version now has %d representatives, had %d", got, repsBefore)
	}
}

// TestRefreshCatchUp pins the catch-up path: records appended while the
// clone was being cracked are carried into the refreshed index before the
// swap.
func TestRefreshCatchUp(t *testing.T) {
	rig := newRefreshRig(t, 250, 40, 2)
	rig.appendExt(t, 0, 25)

	appended := false
	cfg := rig.config(nil, 4)
	inner := cfg.Label
	cfg.Label = func(ctx context.Context, id int) (dataset.Annotation, error) {
		// First label call happens off the lock — stream more records into
		// the LIVE index mid-refresh.
		if !appended {
			appended = true
			rig.appendExt(t, 25, 40)
		}
		return inner(ctx, id)
	}
	r, err := NewRefresher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st, err := r.Refresh(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.CatchUp != 15 {
		t.Fatalf("CatchUp = %d, want 15", st.CatchUp)
	}
	cur := rig.ix.Pin()
	if cur.NumRecords() != 290 {
		t.Fatalf("NumRecords = %d, want 290", cur.NumRecords())
	}
	if _, err := cur.Propagate(core.CountScore("car")); err != nil {
		t.Fatal(err)
	}
}

// TestRefreshSingleFlight pins ErrRefreshInProgress.
func TestRefreshSingleFlight(t *testing.T) {
	rig := newRefreshRig(t, 200, 10, 1)
	rig.appendExt(t, 0, 10)

	gate := make(chan struct{})
	entered := make(chan struct{})
	cfg := rig.config(nil, 2)
	inner := cfg.Label
	var once atomic.Bool
	cfg.Label = func(ctx context.Context, id int) (dataset.Annotation, error) {
		if once.CompareAndSwap(false, true) {
			close(entered)
			<-gate
		}
		return inner(ctx, id)
	}
	r, err := NewRefresher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := r.Refresh(context.Background())
		done <- err
	}()
	<-entered
	if !r.Running() {
		t.Fatal("Running() false mid-refresh")
	}
	if _, err := r.Refresh(context.Background()); !errors.Is(err, ErrRefreshInProgress) {
		t.Fatalf("err = %v, want ErrRefreshInProgress", err)
	}
	close(gate)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// With the first refresh finished, another may run.
	if _, err := r.Refresh(context.Background()); err != nil {
		t.Fatal(err)
	}
}
