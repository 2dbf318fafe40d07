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
	"repro/internal/xrand"
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

// checkExactValues holds a column's exact-score cells to its lifetime: a
// column built by this fetch knows no value, a retained one knows exactly the
// values the check of its first fetch recorded — every third record's, a
// number that names the record — and nothing else.
func checkExactValues(t *testing.T, step string, col *shard.Column, retained bool) {
	t.Helper()
	for id := range col.Scores {
		v, known := col.Value(id)
		if wantKnown := retained && id%3 == 0; known != wantKnown || (known && v != float64(id)+0.25) {
			t.Fatalf("%s: Value(%d) = %v, %v on a column that was retained=%v", step, id, v, known, retained)
		}
		if id%3 == 0 {
			col.SetValue(id, float64(id)+0.25)
		}
	}
}

// checkColumnsFresh fetches every scorer × kind column and requires each to
// be bitwise what the uncached calls compute on the same index right now:
// scores and distances against Propagate / PropagateNearest, the design's
// draws against a fresh CDF over the SUPG weights of the fresh scores, and
// two full cursor drains against LimitOrder (two, so a drain that consumed
// the column's own heaps would show) — and to hold the exact scores of its
// own lifetime only. wantHit is what every fetch must report.
func checkColumnsFresh(t *testing.T, step string, x *shard.Index, wantHit bool) {
	t.Helper()
	gen := x.ColumnStats().Generation
	for _, sc := range columnScorers() {
		w, hit, err := x.Column(sc, shard.ColumnWeighted, nil)
		if err != nil {
			t.Fatalf("%s: weighted column %s: %v", step, sc.Name, err)
		}
		if hit != wantHit || w.Generation != gen {
			t.Fatalf("%s: weighted column %s: hit=%v generation=%d, want hit=%v generation=%d",
				step, sc.Name, hit, w.Generation, wantHit, gen)
		}
		fresh, err := x.Propagate(sc.Score)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, step+" weighted "+sc.Name, w.Scores, fresh)
		checkExactValues(t, step+" weighted "+sc.Name, w, wantHit)
		weights := make([]float64, len(fresh))
		for i, p := range fresh {
			weights[i] = math.Sqrt(math.Max(p, 0)) + 0.05
		}
		cdf := xrand.NewCDF(weights)
		r1, r2 := rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
		for d := 0; d < 64; d++ {
			got, want := w.Design().Draw(r1), cdf.Draw(r2)
			if got != want {
				t.Fatalf("%s: %s design draw %d = %d, fresh CDF draws %d", step, sc.Name, d, got, want)
			}
			if gp, wp := w.Design().Prob(got), weights[want]/cdf.Total(); math.Float64bits(gp) != math.Float64bits(wp) {
				t.Fatalf("%s: %s design Prob(%d) = %v, want %v", step, sc.Name, got, gp, wp)
			}
		}

		nr, hit, err := x.Column(sc, shard.ColumnNearest, nil)
		if err != nil {
			t.Fatalf("%s: nearest column %s: %v", step, sc.Name, err)
		}
		if hit != wantHit || nr.Generation != gen {
			t.Fatalf("%s: nearest column %s: hit=%v generation=%d, want hit=%v generation=%d",
				step, sc.Name, hit, nr.Generation, wantHit, gen)
		}
		fs, fd, err := x.PropagateNearest(sc.Score)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, step+" nearest scores "+sc.Name, nr.Scores, fs)
		sameBits(t, step+" nearest dists "+sc.Name, nr.Dists, fd)
		checkExactValues(t, step+" nearest "+sc.Name, nr, wantHit)
		order := x.LimitOrder(fs, fd)
		for pass := 0; pass < 2; pass++ {
			cur, ordered := nr.Cursor(nil)
			if wantOrdered := wantHit || pass > 0; ordered != wantOrdered {
				t.Fatalf("%s: %s cursor pass %d: heaps already built = %v, want %v", step, sc.Name, pass, ordered, wantOrdered)
			}
			sameInts(t, fmt.Sprintf("%s drain %d %s", step, pass, sc.Name), drain(cur), order)
		}
	}
}

// TestColumnInvalidationModel drives a seeded random sequence of every index
// mutator (and the two operations that must NOT invalidate) over 1, 2 and 4
// shards. After every step each cached column must equal a fresh computation
// on the same index; a state-changing step must have advanced the generation
// and turned the next fetch into a miss — of a column that knows no exact
// score — a no-op crack and a Requantize must have kept the generation, the
// retained columns and the exact scores recorded in them.
func TestColumnInvalidationModel(t *testing.T) {
	const n, reps, steps = 360, 40, 36
	for _, shards := range []int{1, 2, 4} {
		ds, err := dataset.Generate("night-street", n, 1)
		if err != nil {
			t.Fatal(err)
		}
		ix, err := core.Build(core.PretrainedConfig(reps, 2), ds, labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost))
		if err != nil {
			t.Fatal(err)
		}
		x, err := shard.Split(ix, shards)
		if err != nil {
			t.Fatal(err)
		}
		truth := append([]dataset.Annotation(nil), ds.Truth...)
		r := rand.New(rand.NewSource(int64(100 + shards)))

		if x.ColumnStats().Generation != 0 {
			t.Fatalf("shards=%d: fresh split at generation %d", shards, x.ColumnStats().Generation)
		}
		checkColumnsFresh(t, "initial", x, false)
		checkColumnsFresh(t, "initial again", x, true)

		unannotated := func() int {
			for {
				if id := r.Intn(x.NumRecords()); !x.Annotated(id) {
					return id
				}
			}
		}
		annotated := func() int {
			for {
				if id := r.Intn(x.NumRecords()); x.Annotated(id) {
					return id
				}
			}
		}
		for i := 0; i < steps; i++ {
			before := x.ColumnStats().Generation
			wantGen := before + 1
			op := []string{"crack", "noop-crack", "append", "replace", "requantize", "clone"}[r.Intn(6)]
			step := fmt.Sprintf("shards=%d step %d %s", shards, i, op)
			switch op {
			case "crack":
				id := unannotated()
				x.Crack(id, truth[id])
			case "noop-crack":
				id := annotated()
				x.Crack(id, truth[id])
				wantGen = before
			case "append":
				feats, anns := extraRecords(t, 6, int64(1000+i))
				if _, err := x.AppendRecords(feats); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				truth = append(truth, anns...)
			case "replace":
				// A reload: the whole state swapped for a deep copy one
				// representative ahead, which brings its own generation.
				c := x.Clone()
				id := unannotated()
				c.Crack(id, truth[id])
				x.Replace(c)
				wantGen = 1
			case "requantize":
				x.Requantize()
				wantGen = before
			case "clone":
				x = x.Clone()
				wantGen = 0
				if cs := x.ColumnStats(); cs.Entries != 0 || cs.Bytes != 0 {
					t.Fatalf("%s: clone starts with %d columns (%d bytes)", step, cs.Entries, cs.Bytes)
				}
			}
			if got := x.ColumnStats().Generation; got != wantGen {
				t.Fatalf("%s: generation %d -> %d, want %d", step, before, got, wantGen)
			}
			kept := op == "noop-crack" || op == "requantize"
			checkColumnsFresh(t, step, x, kept)
			checkColumnsFresh(t, step+" refetch", x, true)
		}
	}
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
		col, _, err := x.Column(sc, kind, nil)
		if err != nil {
			return err
		}
		var fresh []float64
		if kind == shard.ColumnWeighted {
			fresh, err = x.Propagate(sc.Score)
		} else {
			fresh, _, err = x.PropagateNearest(sc.Score, nil)
			cur, _ := col.Cursor(nil)
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

	misses := reg.Counter(`tasti_proxy_column_requests_total{result="miss"}`).Value()
	if int(misses) != len(seen) {
		t.Errorf("%d column builds for %d distinct (generation, key) pairs", misses, len(seen))
	}
	if hits := reg.Counter(`tasti_proxy_column_requests_total{result="hit"}`).Value(); hits == 0 {
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

	agg, _, err := x.Column(count, shard.ColumnWeighted, nil)
	if err != nil {
		t.Fatal(err)
	}
	sel, _, err := x.Column(match, shard.ColumnWeighted, nil)
	if err != nil {
		t.Fatal(err)
	}
	lim, _, err := x.Column(count, shard.ColumnNearest, nil)
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
		cur, _ := lim.Cursor(nil)
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
	cur, _ := lim.Cursor(nil)
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
			col, hit, err := v.Column(match, shard.ColumnWeighted, nil)
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
			col, hit, err := v.Column(count, shard.ColumnNearest, nil)
			if err != nil || !hit {
				t.Fatalf("n=%d: limit column hit=%v err=%v", n, hit, err)
			}
			cur, _ := col.Cursor(nil)
			if res, err := limitq.RunNext(limitq.Options{}, 24, cur.Next, every, lab); err != nil || len(res.Found) != 24 {
				t.Fatalf("n=%d: limit found %d (%v)", n, len(res.Found), err)
			}
		}
		// The misses: propagation, the design, the heaps and the first prefix.
		if _, _, err := v.Column(match, shard.ColumnWeighted, nil); err != nil {
			t.Fatal(err)
		}
		if _, _, err := v.Column(count, shard.ColumnNearest, nil); err != nil {
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
