package ingest

import (
	"bytes"
	"context"
	"errors"
	"math"
	"runtime"
	"slices"
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

func newRefreshRig(t *testing.T, built, extra int) *refreshRig {
	return buildRefreshRig(t, built, extra, 30)
}

func buildRefreshRig(t *testing.T, built, extra, reps int) *refreshRig {
	t.Helper()
	ds, err := dataset.Generate("night-street", built, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	core0, err := core.Build(core.PretrainedConfig(reps, 2), ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	x, err := shard.Split(core0, 1)
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
// refresh cracks exactly the worst-covered appended records into the live
// index without losing any records — and without touching the version that
// was published before it.
func TestRefreshCracksWorstCovered(t *testing.T) {
	rig := newRefreshRig(t, 250, 40)
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
	if st.Cracked != 8 {
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
	// representatives it had — queries racing the refresh were reading it the
	// whole time.
	if _, err := old.Propagate(core.CountScore("car")); err != nil {
		t.Fatalf("pre-refresh version broken by refresh: %v", err)
	}
	if got := old.RepCount(); got != repsBefore {
		t.Fatalf("pre-refresh version now has %d representatives, had %d", got, repsBefore)
	}
}

// TestRefreshCatchUp pins what happens to records appended while a refresh is
// labeling its candidates: they are in the refreshed index, scanned against
// the refreshed representatives, and the version pinned before the refresh
// still propagates its old bits.
func TestRefreshCatchUp(t *testing.T) {
	rig := newRefreshRig(t, 250, 40)
	rig.appendExt(t, 0, 25)
	old := rig.ix.Pin()
	oldProxy, err := old.Propagate(core.CountScore("car"))
	if err != nil {
		t.Fatal(err)
	}

	appended := false
	cfg := rig.config(nil, 4)
	inner := cfg.Label
	cfg.Label = func(ctx context.Context, id int) (dataset.Annotation, error) {
		// The first label call runs off the write path — stream more records
		// into the LIVE index mid-refresh.
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
	if st.Cracked != 4 {
		t.Fatalf("Cracked = %d, want 4", st.Cracked)
	}
	cur := rig.ix.Pin()
	if cur.NumRecords() != 290 {
		t.Fatalf("NumRecords = %d, want 290", cur.NumRecords())
	}
	if _, err := cur.Propagate(core.CountScore("car")); err != nil {
		t.Fatal(err)
	}
	again, err := old.Propagate(core.CountScore("car"))
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "pre-refresh version's proxy", again, oldProxy)
}

// TestRefreshKeepsConcurrentCrack pins that a refresh is one more write on the
// live index, not a replacement of it: a representative a query cracks in
// while the refresh is labeling is still there afterwards. (A refresh that
// cracked a copy of its pinned version and published the copy dropped it.)
func TestRefreshKeepsConcurrentCrack(t *testing.T) {
	rig := newRefreshRig(t, 250, 40)
	rig.appendExt(t, 0, 40)
	base := rig.ix.RepCount()
	const cracked, budget = 5, 8 // record 5 is a built record: never a refresh candidate
	if rig.ix.Annotated(cracked) {
		t.Fatalf("record %d is already a representative; pick another", cracked)
	}

	done := false
	cfg := rig.config(nil, budget)
	inner := cfg.Label
	cfg.Label = func(ctx context.Context, id int) (dataset.Annotation, error) {
		if !done {
			done = true
			rig.ix.Crack(cracked, rig.base.Truth[cracked])
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
	if st.Cracked != budget {
		t.Fatalf("Cracked = %d, want %d", st.Cracked, budget)
	}
	cur := rig.ix.Pin()
	if !cur.Annotated(cracked) {
		t.Errorf("record %d, cracked during the refresh, is no longer annotated", cracked)
	}
	if got, want := cur.RepCount(), base+1+budget; got != want {
		t.Errorf("RepCount = %d, want %d (built %d + 1 concurrent crack + %d refreshed)", got, want, base, budget)
	}
}

// TestRefreshCopiesNoIndex bounds what a refresh allocates: a crack batch's
// copy-on-write headers, far under the embedding matrix a whole-index copy
// would start with.
func TestRefreshCopiesNoIndex(t *testing.T) {
	rig := buildRefreshRig(t, 20000, 64, 200)
	rig.appendExt(t, 0, 64)
	r, err := NewRefresher(rig.config(nil, 32))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := r.Refresh(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cracked != 32 {
		t.Fatalf("Cracked = %d, want 32", st.Cracked)
	}
	matrix := uint64(8 * len(rig.ix.Shard(0).Embeddings.Data()))
	if got := after.TotalAlloc - before.TotalAlloc; got > matrix/4 {
		t.Fatalf("refresh allocated %d bytes, over a quarter of the %d-byte embedding matrix", got, matrix)
	}
}

// TestRefreshRefitsOnlyAWidenedPlane: a refresh refits the scan plane only
// when a row appended since the plane was coded widened its decode-error
// bound. Over appends inside the fitted grid (copies of built rows) it keeps
// the parent's params; after an append far outside the grid it refits, and
// the refit plane is unwidened again. A save and load in between keeps the
// fit: the restored plane is not widened, and its refresh keeps it too. No
// answer depends on which: every scan reranks exactly.
func TestRefreshRefitsOnlyAWidenedPlane(t *testing.T) {
	const built, copies, stride = 20000, 64, 97
	rig := buildRefreshRig(t, built, 1, 200)
	features := make([][]float64, copies)
	for i := range features {
		features[i] = rig.base.Records[i*stride].Features
	}
	drifted := slices.Clone(rig.base.Records[0].Features)
	for d := range drifted {
		drifted[d] = drifted[d]*3 + 5
	}
	if _, err := rig.ix.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
	cfg := rig.config(nil, 32)
	cfg.Label = func(_ context.Context, id int) (dataset.Annotation, error) {
		if id >= built {
			id = (id - built) * stride // a copy, or the drifted row, labeled as its source
		}
		return rig.base.Truth[id], nil
	}
	r, err := NewRefresher(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fitted := rig.ix.Shard(0).Quant
	if fitted.Widened() {
		t.Fatal("copies of built rows widened the plane's decode-error bound")
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	st, err := r.Refresh(context.Background())
	runtime.ReadMemStats(&after)
	if err != nil || st.Cracked != 32 {
		t.Fatalf("in-range refresh cracked %d (%v), want 32", st.Cracked, err)
	}
	kept := rig.ix.Shard(0).Quant
	if &kept.Params().Scale[0] != &fitted.Params().Scale[0] || kept.MaxErr() != fitted.MaxErr() {
		t.Fatal("a refresh over in-range appends refit the plane")
	}
	t.Logf("in-range refresh allocated %d bytes", after.TotalAlloc-before.TotalAlloc)

	// A restart keeps the plane's fit: the snapshot carries the fit-time
	// bound, so a refresh of the restored index over the same in-range
	// appends refits nothing either.
	var snap bytes.Buffer
	if err := rig.ix.Save(&snap); err != nil {
		t.Fatal(err)
	}
	restored, err := shard.Load(&snap)
	if err != nil {
		t.Fatal(err)
	}
	loaded := restored.Shard(0).Quant
	if loaded.Widened() || loaded.FitErr() != fitted.FitErr() {
		t.Fatalf("the restored plane reports widened %v, fit bound %v; saved %v", loaded.Widened(), loaded.FitErr(), fitted.FitErr())
	}
	rcfg := cfg
	rcfg.Index = restored
	rr, err := NewRefresher(rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := rr.Refresh(context.Background()); err != nil || st.Cracked == 0 {
		t.Fatalf("refresh after the restart cracked %d (%v)", st.Cracked, err)
	}
	if kept := restored.Shard(0).Quant; &kept.Params().Scale[0] != &loaded.Params().Scale[0] {
		t.Fatal("a refresh after a restart refit a plane no append widened")
	}

	if _, err := rig.ix.AppendRecords([][]float64{drifted}); err != nil {
		t.Fatal(err)
	}
	if !rig.ix.Shard(0).Quant.Widened() {
		t.Fatal("a row far outside the grid did not widen the plane's decode-error bound")
	}
	if st, err := r.Refresh(context.Background()); err != nil || st.Cracked == 0 {
		t.Fatalf("drifted refresh cracked %d (%v)", st.Cracked, err)
	}
	refit := rig.ix.Shard(0).Quant
	if &refit.Params().Scale[0] == &fitted.Params().Scale[0] || refit.Widened() {
		t.Fatalf("a refresh after an out-of-range append kept the plane (widened %v)", refit.Widened())
	}
}

// sameBits fails unless got and want are float64-bitwise identical.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, want %v", name, i, got[i], want[i])
		}
	}
}

// TestRefreshSingleFlight pins ErrRefreshInProgress.
func TestRefreshSingleFlight(t *testing.T) {
	rig := newRefreshRig(t, 200, 10)
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
