package shard_test

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/query/aggregation"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
	"repro/internal/shard"
	"repro/internal/telemetry"
)

// columnScorers are the scoring functions the column tests fetch under both
// kinds: a count, and a predicate as a 0/1 score.
func columnScorers() []shard.Scorer {
	twoCars := func(ann dataset.Annotation) bool { return ann.(dataset.VideoAnnotation).Count("car") >= 2 }
	return []shard.Scorer{
		{Name: "count/car", Score: core.CountScore("car")},
		{Name: "match/car/2", Score: core.MatchScore(twoCars)},
	}
}

// extraRecords generates n out-of-build records: the feature vectors to
// append and the annotations a later crack of them needs.
func extraRecords(t *testing.T, n int, seed int64) ([][]float64, []dataset.Annotation) {
	t.Helper()
	extra, err := dataset.Generate("night-street", n, seed)
	if err != nil {
		t.Fatal(err)
	}
	return extraFeatures(t, n, seed), extra.Truth
}

// drain reads a column cursor to the end of the scan order.
func drain(cur *shard.ScanCursor) []int {
	var out []int
	for id, ok := cur.Next(); ok; id, ok = cur.Next() {
		out = append(out, id)
	}
	return out
}

// TestColumnConcurrentFetch runs 8 readers fetching the same and different
// keys while a writer cracks and appends, with nothing between them: each
// reader pins a version the way a cmd/tastiserve handler does and reads only
// it, the writer publishes as it pleases. Under -race this is the whole
// concurrency contract on trial — copy-on-write writers beside lock-free
// readers, and the column store's own synchronization: readers share one
// build per key per generation — every reader of a (generation, key) sees the
// same *Column, and the miss counter equals the number of such pairs — and no
// reader ever sees a column that differs from a fresh propagation of the
// version it pinned.
func TestColumnConcurrentFetch(t *testing.T) {
	const n, reps, readers, writes = 300, 30, 8, 12
	ix, ds := buildIndex(t, n, reps)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	x.SetTelemetry(reg)
	truth := append([]dataset.Annotation(nil), ds.Truth...)
	scorers := columnScorers()

	type genKey struct {
		gen  uint64
		name string
		kind shard.ColumnKind
	}
	var (
		seenM   sync.Mutex
		seen    = map[genKey]*shard.Column{}
		fetches atomic.Int64
		done    = make(chan struct{})
		wg      sync.WaitGroup
	)
	// read is one reader iteration: pin the published version, fetch a random
	// key and hold it against a fresh propagation of that same version.
	read := func(r *rand.Rand) error {
		x := x.Pin()
		gen := x.ColumnStats().Generation
		sc := scorers[r.Intn(len(scorers))]
		kind := shard.ColumnKind(r.Intn(2))
		col, _, err := x.Column(sc, kind)
		if err != nil {
			return err
		}
		var fresh []float64
		if kind == shard.ColumnWeighted {
			fresh, err = x.Propagate(sc.Score)
		} else {
			fresh, _, err = x.PropagateNearest(sc.Score)
			cur, _ := col.Cursor()
			if first, ok := cur.Next(); !ok || first != x.LimitOrder(col.Scores, col.Dists)[0] {
				return fmt.Errorf("%s cursor head %d disagrees with LimitOrder", sc.Name, first)
			}
		}
		if err != nil {
			return err
		}
		if col.Generation != gen || len(col.Scores) != len(fresh) {
			return fmt.Errorf("column of generation %d with %d scores, index at %d with %d records",
				col.Generation, len(col.Scores), gen, len(fresh))
		}
		for i := range fresh {
			if math.Float64bits(col.Scores[i]) != math.Float64bits(fresh[i]) {
				return fmt.Errorf("torn column %s: score %d differs from a fresh propagation", sc.Name, i)
			}
		}
		k := genKey{gen, sc.Name, kind}
		seenM.Lock()
		defer seenM.Unlock()
		if prev, ok := seen[k]; ok && prev != col {
			return fmt.Errorf("second build of %v within one generation", k)
		}
		seen[k] = col
		return nil
	}
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-done:
					return
				default:
				}
				if err := read(r); err != nil {
					t.Errorf("reader %d: %v", g, err)
					return
				}
				fetches.Add(1)
			}
		}(g)
	}
	var stopOnce sync.Once
	stop := func() {
		stopOnce.Do(func() { close(done) })
		wg.Wait()
	}
	defer stop()

	w := rand.New(rand.NewSource(99))
	for i := 0; i < writes && !t.Failed(); i++ {
		if i%3 == 2 {
			feats, anns := extraRecords(t, 4, int64(500+i))
			if _, err := x.AppendRecords(feats); err != nil {
				t.Fatal(err)
			}
			truth = append(truth, anns...)
		} else {
			id := w.Intn(x.NumRecords())
			x.Crack(id, truth[id]) // a no-op when id is already a representative
		}
		// Let the readers at this state before the next write.
		for target := fetches.Load() + 4*readers; fetches.Load() < target && !t.Failed(); {
			runtime.Gosched()
		}
	}
	stop()

	var misses, hits int64
	for _, kind := range []string{"weighted", "nearest"} {
		misses += reg.Counter(`tasti_proxy_column_requests_total{result="miss",kind="` + kind + `"}`).Value()
		hits += reg.Counter(`tasti_proxy_column_requests_total{result="hit",kind="` + kind + `"}`).Value()
	}
	if int(misses) != len(seen) {
		t.Errorf("%d column builds for %d distinct (generation, key) pairs", misses, len(seen))
	}
	if hits == 0 {
		t.Error("no fetch ever hit")
	}
}

// hashFloats is a content hash of a float vector, bit-exact.
func hashFloats(v []float64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	for _, f := range v {
		u := math.Float64bits(f)
		for i := range b {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:])
	}
	return h.Sum64()
}

// TestColumnsAreReadOnly is the guard behind sharing: running an aggregate, a
// select and a limit over cached columns must leave every column slice, the
// design's draws and the cursor's order exactly as they were.
func TestColumnsAreReadOnly(t *testing.T) {
	const n, reps = 600, 60
	ix, ds := buildIndex(t, n, reps)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	count, match := columnScorers()[0], columnScorers()[1]
	pred := func(ann dataset.Annotation) bool { return match.Score(ann) == 1 }

	agg, _, err := x.Column(count, shard.ColumnWeighted)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := x.Column(match, shard.ColumnWeighted)
	if err != nil {
		t.Fatal(err)
	}
	lim, _, err := x.Column(count, shard.ColumnNearest)
	if err != nil {
		t.Fatal(err)
	}
	draws := func() []int {
		r := rand.New(rand.NewSource(3))
		out := make([]int, 200)
		for i := range out {
			out[i] = sel.Design().Draw(r)
		}
		return out
	}
	drain := func() []int {
		cur, _ := lim.Cursor()
		return drain(cur)
	}
	fingerprint := func() []uint64 {
		return []uint64{hashFloats(agg.Scores), hashFloats(sel.Scores), hashFloats(lim.Scores), hashFloats(lim.Dists)}
	}
	wantPrint, wantDraws, wantOrder := fingerprint(), draws(), drain()

	if _, err := aggregation.Estimate(aggregation.Options{ErrTarget: 0.1, Delta: 0.05, MinSamples: 50, Seed: 4},
		n, agg.Scores, aggregation.ScoreFunc(count.Score), lab); err != nil {
		t.Fatal(err)
	}
	selOpts := supg.Options{Budget: 150, Target: 0.9, Delta: 0.05, Seed: 5, Parallelism: 2}
	labeled := supg.MatchFunc(func(id int) (bool, error) {
		ann, err := lab.Label(id)
		return err == nil && pred(ann), err
	})
	if _, err := sel.Design().RecallTargetSelection(selOpts, labeled); err != nil {
		t.Fatal(err)
	}
	cur, _ := lim.Cursor()
	if _, err := limitq.RunNext(limitq.Options{}, 5, cur.Next, pred, lab); err != nil {
		t.Fatal(err)
	}

	for i, h := range fingerprint() {
		if h != wantPrint[i] {
			t.Errorf("column slice %d was written by a query", i)
		}
	}
	sameInts(t, "design draws after queries", draws(), wantDraws)
	sameInts(t, "cursor order after queries", drain(), wantOrder)
}

// hitCost is what one call of f allocates once warm — AllocsPerRun's count
// and the TotalAlloc delta per call — with the collector off, so the pooled
// buffers a call reuses stay in their pools. Both counters are process-wide,
// and an allocation the runtime makes meanwhile only ever adds to them, so
// each is the minimum over five windows of 64 calls.
func hitCost(f func()) (allocs float64, bytes uint64) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const runs, windows = 64, 5
	allocs, bytes = math.Inf(1), math.MaxUint64
	for range windows {
		allocs = min(allocs, testing.AllocsPerRun(runs, f))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			f()
		}
		runtime.ReadMemStats(&after)
		bytes = min(bytes, (after.TotalAlloc-before.TotalAlloc)/runs)
	}
	return allocs, bytes
}

// TestServedHitCostFollowsSample runs what cmd/tastiserve's select and limit
// handlers run on a column hit — the fetch, the SUPG draws and threshold
// search, the returned set's size and first 20 IDs; the fetch, a cursor and a
// 24-record scan — over a 2 000- and a 20 000-record corpus, and requires each
// to allocate the same count and the same bytes at both sizes: a request pays
// for its sample, not for the corpus (no membership vector, no returned-set
// list, no copy of the scan order).
func TestServedHitCostFollowsSample(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops pooled buffers at random")
	}
	count, match := columnScorers()[0], columnScorers()[1]
	type cost struct {
		allocs float64
		bytes  uint64
	}
	measure := func(n int) (sel, lim cost) {
		ix, ds := buildIndex(t, n, 100)
		x, err := shard.Split(ix, 2)
		if err != nil {
			t.Fatal(err)
		}
		truth := make([]bool, n)
		for id, ann := range ds.Truth {
			truth[id] = match.Score(ann) == 1
		}
		lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
		every := func(dataset.Annotation) bool { return true } // the scan labels exactly k records
		v := x.Pin()
		selectHit := func() {
			col, hit, err := v.Column(match, shard.ColumnWeighted)
			if err != nil || !hit {
				t.Fatalf("n=%d: select column hit=%v err=%v", n, hit, err)
			}
			sel, err := col.Design().RecallTargetSelection(supg.Options{Budget: 200, Target: 0.9, Delta: 0.05, Seed: 3},
				supg.MatchFunc(func(id int) (bool, error) { return truth[id], nil }))
			if err != nil || sel.Len() == 0 || len(sel.IDs(20)) != 20 {
				t.Fatalf("n=%d: select returned %d records (%v)", n, sel.Len(), err)
			}
		}
		limitHit := func() {
			col, hit, err := v.Column(count, shard.ColumnNearest)
			if err != nil || !hit {
				t.Fatalf("n=%d: limit column hit=%v err=%v", n, hit, err)
			}
			cur, _ := col.Cursor()
			if res, err := limitq.RunNext(limitq.Options{}, 24, cur.Next, every, lab); err != nil || len(res.Found) != 24 {
				t.Fatalf("n=%d: limit found %d (%v)", n, len(res.Found), err)
			}
		}
		// The misses: propagation, the design, the heaps and the first prefix.
		if _, _, err := v.Column(match, shard.ColumnWeighted); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.Column(count, shard.ColumnNearest); err != nil {
			t.Fatal(err)
		}
		selectHit()
		limitHit()
		sel.allocs, sel.bytes = hitCost(selectHit)
		lim.allocs, lim.bytes = hitCost(limitHit)
		return sel, lim
	}
	smallSel, smallLim := measure(2000)
	bigSel, bigLim := measure(20000)
	if smallSel != bigSel {
		t.Errorf("a select on a hit allocates %v at 2 000 records and %v at 20 000", smallSel, bigSel)
	}
	if smallLim != bigLim {
		t.Errorf("a limit on a hit allocates %v at 2 000 records and %v at 20 000", smallLim, bigLim)
	}
	t.Logf("per request: select %+v, limit %+v", smallSel, smallLim)
}

// countingScorer is count/car with a tally of its calls: how many
// representatives a column build scored.
func countingScorer() (shard.Scorer, *atomic.Int64) {
	calls, count := new(atomic.Int64), core.CountScore("car")
	return shard.Scorer{Name: "counted/count/car", Score: func(ann dataset.Annotation) float64 {
		calls.Add(1)
		return count(ann)
	}}, calls
}

// TestWriteDerivesColumns pins what a column costs after a write. A fresh
// fetch scores every representative; the first fetch after a 16-record
// append, derived from the predecessor's column, scores at most 16·K of
// them, and after a crack only the representatives the rows it changed
// name — and either way it is a miss whose scores are a fresh propagation's.
// Two writes with no fetch between end the lineage: the store a write makes
// links only its predecessor's, so the next fetch is fresh again.
func TestWriteDerivesColumns(t *testing.T) {
	const n, reps = 400, 40
	x, _, truth := modelIndex(t, n, reps, 1)
	sc, calls := countingScorer()
	fetch := func(step string, v *shard.Version) (scored int64) {
		t.Helper()
		for _, kind := range []shard.ColumnKind{shard.ColumnWeighted, shard.ColumnNearest} {
			before := calls.Load()
			col, hit, err := v.Column(sc, kind)
			scored += calls.Load() - before
			if err != nil || hit {
				t.Fatalf("%s: kind %d hit=%v err=%v", step, kind, hit, err)
			}
			want, dists, _ := v.PropagateNearest(sc.Score)
			if kind == shard.ColumnWeighted {
				want, _ = v.Propagate(sc.Score)
			}
			sameBits(t, fmt.Sprintf("%s: kind %d", step, kind), col.Scores, want)
			if kind == shard.ColumnNearest {
				sameBits(t, step+": dists", col.Dists, dists)
			}
		}
		return scored
	}
	if got := fetch("fresh", x.Pin()); got != 2*int64(x.RepCount()) {
		t.Fatalf("a fresh fetch of both kinds scored %d representatives, want %d", got, 2*x.RepCount())
	}

	if _, err := x.AppendRecords(extraFeatures(t, 16, 3)); err != nil {
		t.Fatal(err)
	}
	if got := fetch("after an append", x.Pin()); got > 2*16*int64(x.K()) {
		t.Errorf("the fetches after a 16-record append scored %d representatives, over 2·16·K = %d", got, 2*16*x.K())
	}

	before := x.Pin()
	id := 0
	for x.Annotated(id) {
		id++
	}
	x.Crack(id, truth[id])
	after := x.Pin()
	named := map[int]bool{}
	for i, row := range after.Shard(0).Table.Neighbors[:before.NumRecords()] {
		if old := before.Shard(0).Table.Neighbors[i]; len(old) != len(row) || &old[0] != &row[0] {
			for _, nb := range row {
				named[nb.Rep] = true
			}
		}
	}
	if got := fetch("after a crack", after); got < 2 || got > 2*int64(len(named)) {
		t.Errorf("the fetches after a crack scored %d representatives; its changed rows name %d", got, len(named))
	}

	if _, err := x.AppendRecords(extraFeatures(t, 4, 5)); err != nil {
		t.Fatal(err)
	}
	if _, err := x.AppendRecords(extraFeatures(t, 4, 6)); err != nil {
		t.Fatal(err)
	}
	if got := fetch("after two writes", x.Pin()); got != 2*int64(x.RepCount()) {
		t.Errorf("the fetches two writes on scored %d representatives, want a fresh build's %d", got, 2*x.RepCount())
	}
}

// TestColumnDerivationRace has readers pinned to one generation build its
// column's design and sorted copy lazily, select over it and record exact
// scores, while a writer appends and readers of the next generation derive
// their column from that very one — round after round. Under -race this
// checks that a derivation reads its predecessor's design and sorted copy
// only through their publication and its exact scores only atomically. Every
// derived column must equal a fresh propagation, draw and count like a fresh
// design, and know no exact score but the ones recorded.
func TestColumnDerivationRace(t *testing.T) {
	const n, reps, rounds, readers = 400, 40, 6, 4
	x, _, _ := modelIndex(t, n, reps, 1)
	sc := columnScorers()[0]
	exact := func(id int) float64 { return float64(id) + 0.5 }
	opts := supg.Options{Budget: 60, Target: 0.9, Delta: 0.05, Seed: 1}
	for round := 0; round < rounds; round++ {
		v := x.Pin()
		col, _, err := v.Column(sc, shard.ColumnWeighted)
		if err != nil {
			t.Fatal(err)
		}
		match := supg.MatchFunc(func(id int) (bool, error) { return col.Scores[id] >= 1, nil })
		var wg sync.WaitGroup
		for g := 0; g < readers; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				sel, err := col.Design().RecallTargetSelection(opts, match)
				if err != nil {
					t.Errorf("round %d reader %d: %v", round, g, err)
					return
				}
				sel.Len() // builds the sorted copy

				for id := g; id < len(col.Scores); id += readers {
					col.SetValue(id, exact(id))
				}
			}(g)
		}
		if _, err := x.AppendRecords(extraFeatures(t, 8, int64(round))); err != nil {
			t.Fatal(err)
		}
		next := x.Pin()
		derived := make([]*shard.Column, readers)
		for g := range derived {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				derived[g], _, _ = next.Column(sc, shard.ColumnWeighted)
			}(g)
		}
		wg.Wait()
		want, _ := next.Propagate(sc.Score)
		d := derived[0]
		sameBits(t, fmt.Sprintf("round %d", round), d.Scores, want)
		fresh := supg.NewDesign(want)
		got, err := d.Design().RecallTargetSelection(opts, match)
		exp, _ := fresh.RecallTargetSelection(opts, match)
		if err != nil || got.Len() != exp.Len() || got.Threshold != exp.Threshold {
			t.Fatalf("round %d: derived design selects %d at %v, a fresh one %d at %v (%v)", round, got.Len(), got.Threshold, exp.Len(), exp.Threshold, err)
		}
		for id := range d.Scores {
			if v, known := d.Value(id); known && (v != exact(id) || id >= len(col.Scores)) {
				t.Fatalf("round %d: derived column knows Value(%d) = %v", round, id, v)
			}
		}
	}
}
