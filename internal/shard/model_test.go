package shard_test

import (
	"bytes"
	"context"
	"fmt"
	"maps"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/ingest"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/limitq"
	"repro/internal/query/supg"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/vecmath"
)

// refModel is the naive reference index: every record's embedding, the
// representative list in the order it grew, and the representatives'
// annotations. Its table is cluster's one-pass table over those, and its
// propagations are plain loops over that table. Beside the state it keeps
// what the served index must report about it: the view count, the
// generation, which proxy columns this generation has already built, and
// which exact scores each column's lineage has recorded.
type refModel struct {
	emb   vecmath.Matrix
	reps  []int
	anns  map[int]dataset.Annotation
	k     int
	views int
	since int // records at build: the refresher's candidates are past it
	gen   uint64
	built map[string]bool // column keys fetched at this generation
	// lineage maps a column key to the record count of the last fetch in
	// its lineage, each of which records the exact score of every third
	// record it has. A lineage runs through consecutive generations, each
	// deriving its column from the one before, since the last split, load,
	// clone, Replace or rewire.
	lineage map[string]int

	tab *cluster.Table // the one-pass table, nil until asked for
}

func newRefModel(ix *core.Index, views int) *refModel {
	m := &refModel{reps: slices.Clone(ix.Table.Reps), anns: maps.Clone(ix.Annotations), k: ix.Table.K,
		views: views, since: ix.NumRecords()}
	m.unlinked()
	m.emb = vecmath.NewMatrix(0, ix.Embeddings.Dim())
	m.appendRows(ix.Embeddings)
	return m
}

func (m *refModel) appendRows(rows vecmath.Matrix) {
	for i := 0; i < rows.Rows(); i++ {
		m.emb.AppendRow(slices.Clone(rows.Row(i)))
	}
}

func (m *refModel) clone() *refModel {
	c := *m
	c.emb = vecmath.NewMatrix(0, m.emb.Dim())
	c.appendRows(m.emb)
	c.reps, c.anns = slices.Clone(m.reps), maps.Clone(m.anns)
	c.unlinked()
	return &c
}

// unlinked records a store with no predecessor: no column built, no lineage.
func (m *refModel) unlinked() { m.built, m.lineage = map[string]bool{}, map[string]int{} }

// changed records a state change of gens generations: the columns go, and
// the next generation's columns derive from them — the lineage of a key this
// generation did not build ends.
func (m *refModel) changed(gens int) {
	if gens > 0 {
		m.gen += uint64(gens)
		lineage := map[string]int{}
		for key := range m.built {
			lineage[key] = m.lineage[key]
		}
		m.built, m.lineage = map[string]bool{}, lineage
		m.tab = nil
	}
}

// crack adds the records of ids that are not representatives yet, in order.
func (m *refModel) crack(ids []int, anns map[int]dataset.Annotation) (added int) {
	for _, id := range ids {
		if _, ok := m.anns[id]; !ok {
			m.anns[id] = anns[id]
			m.reps = append(m.reps, id)
			added++
		}
	}
	m.changed(added)
	return added
}

func (m *refModel) append(e embed.Embedder, features [][]float64) {
	if len(features) == 0 {
		return
	}
	rows := vecmath.NewMatrix(len(features), m.emb.Dim())
	for i, f := range features {
		embed.Into(e, rows.Row(i), f)
	}
	m.appendRows(rows)
	m.changed(1)
}

func (m *refModel) table() *cluster.Table {
	if m.tab == nil {
		m.tab = cluster.BuildTablePar(m.emb, m.reps, m.k, 1)
	}
	return m.tab
}

func (m *refModel) NumRecords() int { return m.emb.Rows() }

func (m *refModel) propagateK(score core.ScoreFunc, k int) []float64 {
	out := make([]float64, m.NumRecords())
	for i, row := range m.table().Neighbors {
		if row[0].Dist == 0 {
			out[i] = score(m.anns[row[0].Rep])
			continue
		}
		num, den := 0.0, 0.0
		for _, nb := range row[:k] {
			w := 1 / (nb.Dist + 1e-9)
			num += w * score(m.anns[nb.Rep])
			den += w
		}
		out[i] = num / den
	}
	return out
}

func (m *refModel) Propagate(score core.ScoreFunc) ([]float64, error) {
	return m.propagateK(score, m.k), nil
}

func (m *refModel) PropagateNearest(score core.ScoreFunc) (scores, dists []float64, err error) {
	for _, row := range m.table().Neighbors {
		scores, dists = append(scores, score(m.anns[row[0].Rep])), append(dists, row[0].Dist)
	}
	return scores, dists, nil
}

func (m *refModel) meanNearest() float64 {
	sum := 0.0
	for _, row := range m.table().Neighbors {
		sum += row[0].Dist
	}
	return sum / float64(m.NumRecords())
}

// matchesModel fails unless v holds the model's state bit for bit — view
// ranges, embedding and neighbor rows, representatives, annotations,
// generation, a plane — and every read path computes the model's bits.
func matchesModel(t *testing.T, step string, v *shard.Version, m *refModel, r *rand.Rand) {
	t.Helper()
	total := m.NumRecords()
	if v.NumRecords() != total || v.NumShards() != m.views || v.ColumnStats().Generation != m.gen {
		t.Fatalf("%s: %d records in %d views at generation %d, model %d in %d at %d", step,
			v.NumRecords(), v.NumShards(), v.ColumnStats().Generation, total, m.views, m.gen)
	}
	if err := v.Validate(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	tab := m.table()
	for s := 0; s < m.views; s++ {
		g := v.Shard(s)
		if lo, hi := s*total/m.views, (s+1)*total/m.views; g.Lo != lo || g.Hi != hi {
			t.Fatalf("%s: view %d covers [%d,%d), model [%d,%d)", step, s, g.Lo, g.Hi, lo, hi)
		}
		sameInts(t, step+": reps", g.Table.Reps, m.reps)
		if !reflect.DeepEqual(g.Annotations, m.anns) {
			t.Fatalf("%s: %d annotations, model %d", step, len(g.Annotations), len(m.anns))
		}
		for i := range g.Table.Neighbors {
			id := g.Lo + i
			sameBits(t, fmt.Sprintf("%s: record %d embedding", step, id), g.Embeddings.Row(i), m.emb.Row(id))
			sameNeighbors(t, fmt.Sprintf("%s: record %d", step, id), g.Table.Neighbors[i], tab.Neighbors[id])
			if got := v.NearestDistance(id); math.Float64bits(got) != math.Float64bits(tab.Neighbors[id][0].Dist) {
				t.Fatalf("%s: NearestDistance(%d) = %v", step, id, got)
			}
		}
	}
	if got, want := v.MeanNearestDistance(), m.meanNearest(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("%s: MeanNearestDistance = %v, model %v", step, got, want)
	}
	score := core.CountScore("car")
	k := 1 + r.Intn(m.k)
	got, err := v.PropagateK(score, k)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	sameBits(t, fmt.Sprintf("%s: PropagateK(%d)", step, k), got, m.propagateK(score, k))
	scores, dists, err := v.PropagateNearest(score)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	ws, wd, _ := m.PropagateNearest(score)
	sameBits(t, step+": nearest scores", scores, ws)
	sameBits(t, step+": nearest dists", dists, wd)
	sameInts(t, step+": LimitOrder", v.LimitOrder(scores, dists), limitq.Order(ws, wd))
	sameInts(t, step+": LimitOrder without ties", v.LimitOrder(got, nil), limitq.Order(got, nil))
}

// checkColumns fetches every scorer × kind column of v and holds it to the
// model: hit exactly when this generation already built it, the model's
// scores and mean, a design that draws, thresholds and counts what a fresh
// design over them does, two cursor drains in the model's scan order, and
// exactly the exact scores its lineage recorded. derived reports that some
// fetch missed on a key whose lineage had recorded scores: a column derived
// from its predecessor's.
func checkColumns(t *testing.T, step string, v *shard.Version, m *refModel) (derived bool) {
	t.Helper()
	for _, sc := range columnScorers() {
		for _, kind := range []shard.ColumnKind{shard.ColumnWeighted, shard.ColumnNearest} {
			at := fmt.Sprintf("%s: column %s/%d", step, sc.Name, kind)
			key := fmt.Sprintf("%s/%d", sc.Name, kind)
			col, hit, err := v.Column(sc, kind)
			if err != nil {
				t.Fatalf("%s: %v", at, err)
			}
			if hit != m.built[key] || col.Generation != m.gen {
				t.Fatalf("%s: hit=%v at generation %d, model %v at %d", at, hit, col.Generation, m.built[key], m.gen)
			}
			m.built[key] = true
			recorded := m.lineage[key]
			derived = derived || !hit && recorded > 0
			for id := range col.Scores {
				// A column knows exactly the exact scores its lineage
				// recorded: every third record's, a number naming it.
				if v, known := col.Value(id); known != (id%3 == 0 && id < recorded) || known && v != float64(id)+0.25 {
					t.Fatalf("%s: Value(%d) = %v, %v with %d records recorded", at, id, v, known, recorded)
				}
				if id%3 == 0 {
					col.SetValue(id, float64(id)+0.25)
				}
			}
			m.lineage[key] = len(col.Scores)
			if kind == shard.ColumnWeighted {
				want, _ := m.Propagate(sc.Score)
				sameBits(t, at, col.Scores, want)
				if math.Float64bits(col.Mean) != math.Float64bits(stats.Mean(want)) {
					t.Fatalf("%s: mean %v, model %v", at, col.Mean, stats.Mean(want))
				}
				fresh, r1, r2 := supg.NewDesign(want), rand.New(rand.NewSource(7)), rand.New(rand.NewSource(7))
				for d := 0; d < 32; d++ {
					if got, want := col.Design().Draw(r1), fresh.Draw(r2); got != want || col.Design().Prob(got) != fresh.Prob(want) {
						t.Fatalf("%s: design draw %d = %d, a fresh design's %d", at, d, got, want)
					}
				}
				// Selections at several thresholds count the same set over
				// the column's sorted copy — a predecessor's merged forward,
				// or one sorted here — as over a fresh sort.
				match := supg.MatchFunc(func(id int) (bool, error) { return want[id] >= 0.5, nil })
				for i, target := range []float64{0.5, 0.8, 0.95} {
					opts := supg.Options{Budget: 40, Target: target, Delta: 0.05, Seed: int64(i)}
					got, err := col.Design().RecallTargetSelection(opts, match)
					if err != nil {
						t.Fatalf("%s: %v", at, err)
					}
					exp, _ := fresh.RecallTargetSelection(opts, match)
					if math.Float64bits(got.Threshold) != math.Float64bits(exp.Threshold) || got.Len() != exp.Len() {
						t.Fatalf("%s: target %v selects %d at %v, a fresh design %d at %v",
							at, target, got.Len(), got.Threshold, exp.Len(), exp.Threshold)
					}
				}
				continue
			}
			ws, wd, _ := m.PropagateNearest(sc.Score)
			sameBits(t, at+" scores", col.Scores, ws)
			sameBits(t, at+" dists", col.Dists, wd)
			for pass := 0; pass < 2; pass++ {
				cur, ordered := col.Cursor()
				if ordered != (hit || pass > 0) {
					t.Fatalf("%s: cursor pass %d found the heaps built = %v", at, pass, ordered)
				}
				sameInts(t, fmt.Sprintf("%s drain %d", at, pass), drain(cur), limitq.Order(ws, wd))
			}
		}
	}
	return derived
}

// pin is a version held across later writes with what it read when pinned,
// and a column of it in which every other record's exact score — a number
// that names the record — was recorded then.
type pin struct {
	step  string
	v     *shard.Version
	reads [][]float64 // the weighted and nearest propagations
	anns  []int       // the annotated records
}

var pinScorer = shard.Scorer{Name: "pin/count/car", Score: core.CountScore("car")}

func (p *pin) read(t *testing.T) (reads [][]float64, anns []int) {
	t.Helper()
	weighted, err := p.v.Propagate(pinScorer.Score)
	if err != nil {
		t.Fatal(err)
	}
	scores, dists, err := p.v.PropagateNearest(pinScorer.Score)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < p.v.NumRecords(); id++ {
		if p.v.Annotated(id) {
			anns = append(anns, id)
		}
	}
	return [][]float64{weighted, scores, dists}, anns
}

func pinVersion(t *testing.T, step string, v *shard.Version) *pin {
	t.Helper()
	p := &pin{step: step, v: v}
	p.reads, p.anns = p.read(t)
	col, hit, err := v.Column(pinScorer, shard.ColumnWeighted)
	if err != nil {
		t.Fatal(err)
	}
	for id := 0; id < len(col.Scores) && !hit; id += 2 {
		col.SetValue(id, float64(id))
	}
	return p
}

// check fails unless the pinned version still reads the bits it did when
// pinned and its column still knows every exact score recorded then.
func (p *pin) check(t *testing.T, after string) {
	t.Helper()
	name := fmt.Sprintf("version pinned before %s, after %s", p.step, after)
	reads, anns := p.read(t)
	for i, vec := range reads {
		sameBits(t, fmt.Sprintf("%s: read %d", name, i), vec, p.reads[i])
	}
	sameInts(t, name+": annotated", anns, p.anns)
	col, hit, err := p.v.Column(pinScorer, shard.ColumnWeighted)
	if err != nil || !hit {
		t.Fatalf("%s: column refetch hit=%v err=%v", name, hit, err)
	}
	for id := 0; id < len(col.Scores); id += 2 {
		if v, known := col.Value(id); !known || v != float64(id) {
			t.Fatalf("%s: Value(%d) = %v, %v, recorded %d", name, id, v, known, id)
		}
	}
}

// truthLabeler is the oracle over every record, appended ones included.
type truthLabeler struct{ truth *[]dataset.Annotation }

func (l truthLabeler) Label(id int) (dataset.Annotation, error) { return (*l.truth)[id], nil }
func (truthLabeler) Name() string                               { return "oracle" }
func (truthLabeler) Cost() labeler.CostModel                    { return labeler.MaskRCNNCost }

var modelOps = []string{"crack", "crack-in-order", "noop-crack", "append", "drifted-append", "split",
	"save-load", "crack-requantize", "refresh", "replace", "query"}

// TestIndexMatchesReferenceModel drives a seeded random sequence of every
// operation an index takes — build and split at a random view count, crack
// batches (in ID order, in the caller's, of representatives only), appends
// (some far outside the plane's trained range), save/load, crack-and-
// requantize, a refresh racing a crack and an append, a whole-index
// Replace of a clone, and column fetches plus Run — at random worker counts, and beside it the same operations on the
// reference model. After every step the published version matches the model
// bit for bit, and every version pinned before any earlier step still reads
// what it read then: no writer reaches memory a published version can read,
// and no write is lost.
func TestIndexMatchesReferenceModel(t *testing.T) {
	const n, reps, steps = 300, 30, 80
	for _, seed := range []int64{1, 2} {
		r := rand.New(rand.NewSource(seed))
		ix, ds := buildIndex(t, n, reps)
		embedder := ix.Embedder
		m := newRefModel(ix, 1+r.Intn(5))
		x, err := shard.Split(ix, m.views)
		if err != nil {
			t.Fatal(err)
		}
		truth := slices.Clone(ds.Truth)
		lab := truthLabeler{&truth}
		labels := store.New(store.Options{})
		var pins []*pin
		seen := map[string]bool{}
		unannotated := func(lo, hi int) int {
			for {
				if id := lo + r.Intn(hi-lo); !x.Annotated(id) {
					return id
				}
			}
		}
		extra := func(count int, drifted bool) [][]float64 {
			if count == 0 {
				return nil
			}
			feats, anns := extraRecords(t, count, int64(len(truth)))
			truth = append(truth, anns...)
			for _, row := range feats {
				for d := 0; drifted && d < len(row); d++ {
					row[d] = row[d]*3 + 5
				}
			}
			return feats
		}
		for i := 0; i < steps; i++ {
			op := modelOps[r.Intn(len(modelOps))]
			step := fmt.Sprintf("seed %d step %d %s", seed, i, op)
			if r.Intn(3) == 0 {
				// A rewire publishes the state under new wiring, without
				// the columns.
				x.SetParallelism([]int{1, 2, 3, 7}[r.Intn(4)])
				m.unlinked()
			}
			pins = append(pins, pinVersion(t, step, x.Pin()))
			seen[op] = true
			switch op {
			case "crack", "crack-in-order", "noop-crack":
				if x.Shard(0).Quant.Widened() {
					seen["crack through a widened plane"] = true
				}
				var ids []int
				for len(ids) < 1+r.Intn(5) {
					if id := r.Intn(x.NumRecords()); (op == "noop-crack") == x.Annotated(id) && !slices.Contains(ids, id) {
						ids = append(ids, id)
					}
				}
				batch, got := annsOf(truth, ids...), 0
				if op == "crack-in-order" {
					got = x.CrackInOrder(ids, batch)
				} else {
					sort.Ints(ids)
					got = x.CrackAll(batch)
				}
				if want := m.crack(ids, batch); got != want {
					t.Fatalf("%s: %d representatives added, model %d", step, got, want)
				}
			case "append", "drifted-append":
				feats := extra(r.Intn(7)+len(op)-len("append"), op == "drifted-append") // a drifted batch is never empty
				ids, err := x.AppendRecords(feats)
				if err != nil || len(ids) != len(feats) || len(ids) > 0 && ids[0] != m.NumRecords() {
					t.Fatalf("%s: appended ids %v from %d: %v", step, ids, m.NumRecords(), err)
				}
				m.append(embedder, feats)
			case "split":
				// Split at a new view count over a hand-built index of the
				// model's state, which brings no plane; a reload swaps it in.
				own := m.clone()
				lit := &core.Index{Embeddings: own.emb, Table: cluster.BuildTablePar(own.emb, own.reps, m.k, 1),
					Annotations: own.anns, Embedder: embedder}
				m = m.clone()
				m.views, m.gen = 1+r.Intn(5), 0
				nx, err := shard.Split(lit, m.views)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				x.Replace(nx)
			case "save-load":
				var buf bytes.Buffer
				if err := x.Save(&buf); err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				loaded, err := shard.Load(&buf)
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if loaded.Pin().Stats.TotalLabelCalls() != x.Pin().Stats.TotalLabelCalls() ||
					loaded.Pin().MemoryStats() != x.Pin().MemoryStats() || loaded.Embedder() == nil {
					t.Fatalf("%s: the load lost its build stats, plane or embedder", step)
				}
				x = loaded
				x.SetParallelism([]int{1, 2, 3, 7}[r.Intn(4)])
				m.gen = 0
				m.unlinked()
			case "crack-requantize":
				var ids []int
				for len(ids) < r.Intn(4) {
					if id := unannotated(0, x.NumRecords()); !slices.Contains(ids, id) {
						ids = append(ids, id)
					}
				}
				if got, want := x.CrackAndRequantize(ids, annsOf(truth, ids...)), m.crack(ids, annsOf(truth, ids...)); got != want {
					t.Fatalf("%s: %d representatives added, model %d", step, got, want)
				}
				if x.Shard(0).Quant.Widened() {
					t.Fatalf("%s: the plane is still widened after the refit", step)
				}
			case "refresh":
				// The refresher ranks the worst-covered appended records on
				// its pin; while it labels them a query cracks a built
				// record and the ingest loop appends. Both must survive.
				budget := 1 + r.Intn(6)
				tab := m.table()
				var cands []int
				for id := m.since; id < m.NumRecords(); id++ {
					if _, ok := m.anns[id]; !ok {
						cands = append(cands, id)
					}
				}
				sort.Slice(cands, func(a, b int) bool {
					da, db := tab.Neighbors[cands[a]][0].Dist, tab.Neighbors[cands[b]][0].Dist
					if da != db {
						return da > db
					}
					return cands[a] < cands[b]
				})
				cands = cands[:min(budget, len(cands))]
				racer := unannotated(0, m.since)
				feats := extra(1+r.Intn(3), false)
				raced := false
				rf, err := ingest.NewRefresher(ingest.RefreshConfig{Index: x, Budget: budget, Since: m.since,
					Label: func(_ context.Context, id int) (dataset.Annotation, error) {
						if !raced {
							raced = true
							x.Crack(racer, truth[racer])
							if _, err := x.AppendRecords(feats); err != nil {
								return nil, err
							}
						}
						return truth[id], nil
					}})
				if err != nil {
					t.Fatal(err)
				}
				st, err := rf.Refresh(context.Background())
				if err != nil {
					t.Fatalf("%s: %v", step, err)
				}
				if raced {
					m.crack([]int{racer}, annsOf(truth, racer))
					m.append(embedder, feats)
				}
				added := m.crack(cands, annsOf(truth, cands...))
				if st.Cracked != added || math.Float64bits(st.Baseline) != math.Float64bits(m.meanNearest()) {
					t.Fatalf("%s: refresh cracked %d, baseline %v; model %d, %v", step, st.Cracked, st.Baseline, added, m.meanNearest())
				}
				if !raced { // nothing to label: the records arrive after the refresh
					if _, err := x.AppendRecords(feats); err != nil {
						t.Fatal(err)
					}
					m.append(embedder, feats)
				}
			case "replace":
				// A reload: the whole state swapped for a deep copy that may
				// be one representative ahead, which brings its own
				// generation.
				c := x.Clone()
				id := r.Intn(x.NumRecords())
				c.Crack(id, truth[id])
				x.Replace(c)
				m.unlinked()
				m.gen = uint64(m.crack([]int{id}, annsOf(truth, id)))
			case "query":
				v := x.Pin()
				if checkColumns(t, step, v, m) {
					seen["columns derived"] = true
				}
				name := []string{"aggregate", "select", "limit", "exhausted"}[r.Intn(4)]
				q := runCases()[name]
				ans, err := v.Run(context.Background(), q, labels.Bind(lab, nil, "", v.AnnotationOf), nil)
				if err != nil {
					t.Fatalf("%s: %s: %v", step, name, err)
				}
				var selected []int
				if q.Select != nil {
					selected = ans.Selection.IDs(v.NumRecords())
				}
				if got, want := answerKey(ans, selected), referenceKey(t, m, q, lab); got != want {
					t.Fatalf("%s: %s:\n got  %s\n want %s", step, name, got, want)
				}
				if ans.Records != m.NumRecords() || ans.Hits+ans.Misses != labelCalls(q, ans) {
					t.Fatalf("%s: %s read %d records, %d hits + %d misses for %d label calls",
						step, name, ans.Records, ans.Hits, ans.Misses, labelCalls(q, ans))
				}
			}
			// Half the other steps fetch the columns too, so a lineage
			// runs across every kind of write.
			if op != "query" && r.Intn(2) == 0 && checkColumns(t, step, x.Pin(), m) {
				seen["columns derived"] = true
			}
			matchesModel(t, step, x.Pin(), m, r)
			for _, p := range pins {
				p.check(t, step)
			}
		}
		for _, op := range append(modelOps, "crack through a widened plane", "columns derived") {
			if !seen[op] {
				t.Errorf("seed %d never ran %s", seed, op)
			}
		}
	}
}

// annsOf is the batch of truth's annotations of ids.
func annsOf(truth []dataset.Annotation, ids ...int) map[int]dataset.Annotation {
	batch := make(map[int]dataset.Annotation, len(ids))
	for _, id := range ids {
		batch[id] = truth[id]
	}
	return batch
}

// Fixed scenarios over the same reference: each pins one contract on its
// own, whatever the random sequence above happens to draw.

// modelIndex builds an n-record index served with views, beside its model
// and the annotations of every record.
func modelIndex(t *testing.T, n, reps, views int) (*shard.Index, *refModel, []dataset.Annotation) {
	t.Helper()
	ix, ds := buildIndex(t, n, reps)
	m := newRefModel(ix, views)
	x, err := shard.Split(ix, views)
	if err != nil {
		t.Fatal(err)
	}
	return x, m, slices.Clone(ds.Truth)
}

// TestShardCountInvariance: the view count splits no query — every read
// path of an index served with three views computes the model's bits, at one
// worker and at four.
func TestShardCountInvariance(t *testing.T) {
	for _, par := range []int{1, 4} {
		x, m, _ := modelIndex(t, 500, 60, 3)
		x.SetParallelism(par)
		matchesModel(t, fmt.Sprintf("par=%d", par), x.Pin(), m, rand.New(rand.NewSource(1)))
	}
}

// TestCrackInvariance: a crack batch evolves the table into the model's
// one-pass table over the final representative list, and cracking a
// representative again changes nothing, the generation included.
func TestCrackInvariance(t *testing.T) {
	x, m, truth := modelIndex(t, 400, 40, 1)
	var ids []int
	for id := 5; id < 400; id += 29 {
		ids = append(ids, id)
	}
	if got, want := x.CrackAll(annsOf(truth, ids...)), m.crack(ids, annsOf(truth, ids...)); got != want {
		t.Fatalf("CrackAll added %d representatives, model %d", got, want)
	}
	x.Crack(ids[0], truth[ids[0]])
	matchesModel(t, "cracked", x.Pin(), m, rand.New(rand.NewSource(1)))
}

// TestShardAppendInvariance: appended records get the next IDs and the
// embeddings and neighbor rows of a one-pass table over the grown corpus, at
// one worker and at four.
func TestShardAppendInvariance(t *testing.T) {
	features := extraFeatures(t, 80, 99)
	for _, par := range []int{1, 4} {
		x, m, _ := modelIndex(t, 400, 50, 1)
		x.SetParallelism(par)
		ids, err := x.AppendRecords(features)
		if err != nil || len(ids) != 80 || ids[0] != 400 || ids[79] != 479 {
			t.Fatalf("par=%d: append ids %v, %v", par, ids, err)
		}
		m.append(x.Embedder(), features)
		matchesModel(t, fmt.Sprintf("par=%d", par), x.Pin(), m, rand.New(rand.NewSource(1)))
	}
}

// TestShardQuantInvariance: cracks that prune through the quantized plane —
// before and after an append widened its decode-error bound — leave the
// model's float one-pass table.
func TestShardQuantInvariance(t *testing.T) {
	const n, extra = 500, 60
	x, m, truth := modelIndex(t, n, 60, 1)
	features, anns := extraRecords(t, extra, 8)
	truth = append(truth, anns...)
	for _, row := range features[extra/2:] {
		for d := range row {
			row[d] = row[d]*3 + 5
		}
	}
	crack := func(from, step int) {
		var ids []int
		for id := from; id < x.NumRecords(); id += step {
			ids = append(ids, id)
		}
		if got, want := x.CrackAll(annsOf(truth, ids...)), m.crack(ids, annsOf(truth, ids...)); got != want {
			t.Fatalf("CrackAll added %d representatives, model %d", got, want)
		}
	}
	crack(3, 41)
	if _, err := x.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
	m.append(x.Embedder(), features)
	if !x.Shard(0).Quant.Widened() {
		t.Fatal("the drifted append did not widen the plane's decode-error bound")
	}
	crack(17, 29)
	matchesModel(t, "cracked through a widened plane", x.Pin(), m, rand.New(rand.NewSource(1)))
}

// TestShardAppendThenCrack: an empty batch appends nothing, and an appended
// record cracks like a built one.
func TestShardAppendThenCrack(t *testing.T) {
	x, m, truth := modelIndex(t, 300, 40, 3)
	if ids, err := x.AppendRecords(nil); err != nil || ids != nil {
		t.Fatalf("empty append: ids=%v err=%v", ids, err)
	}
	features, anns := extraRecords(t, 30, 7)
	if _, err := x.AppendRecords(features); err != nil {
		t.Fatal(err)
	}
	m.append(x.Embedder(), features)
	truth = append(truth, anns...)
	x.Crack(310, truth[310])
	m.crack([]int{310}, annsOf(truth, 310))
	matchesModel(t, "append then crack", x.Pin(), m, rand.New(rand.NewSource(1)))
}

// TestShardClone: a clone starts at generation 0 with no columns and keeps
// the embedding model, and writing it — an append and a crack — leaves the
// original as it was.
func TestShardClone(t *testing.T) {
	x, m, truth := modelIndex(t, 300, 40, 3)
	if _, _, err := x.Column(columnScorers()[0], shard.ColumnWeighted); err != nil {
		t.Fatal(err)
	}
	c := x.Clone()
	if cs := c.ColumnStats(); c.Embedder() == nil || cs.Entries != 0 || cs.Bytes != 0 || cs.Generation != 0 {
		t.Fatalf("the clone starts with %+v, embedder %v", cs, c.Embedder())
	}
	if _, err := c.AppendRecords(extraFeatures(t, 20, 5)); err != nil {
		t.Fatal(err)
	}
	c.Crack(3, truth[3])
	if c.NumRecords() != 320 || c.RepCount() != x.RepCount()+1 {
		t.Fatalf("clone has %d records and %d representatives", c.NumRecords(), c.RepCount())
	}
	matchesModel(t, "original after the clone's writes", x.Pin(), m, rand.New(rand.NewSource(1)))
}

// TestShardMeanNearestDistance: the drift baseline is the model's serial mean
// of every record's nearest-representative distance.
func TestShardMeanNearestDistance(t *testing.T) {
	x, m, _ := modelIndex(t, 250, 30, 3)
	if got, want := x.Pin().MeanNearestDistance(), m.meanNearest(); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("MeanNearestDistance = %v, want %v", got, want)
	}
}

// TestVersionSharesOneRepresentativeSet: a version pinned before a crack
// batch reads none of the batch, and a clone holds a representative list of
// its own.
func TestVersionSharesOneRepresentativeSet(t *testing.T) {
	x, _, truth := modelIndex(t, 300, 30, 3)
	p := pinVersion(t, "the crack", x.Pin())
	batch := map[int]dataset.Annotation{}
	for id := 0; len(batch) < 5; id += 7 {
		if !x.Annotated(id) {
			batch[id] = truth[id]
		}
	}
	if added := x.CrackAll(batch); added != len(batch) {
		t.Fatalf("crack added %d of %d", added, len(batch))
	}
	p.check(t, "the crack")
	if c := x.Clone(); &c.Shard(0).Table.Reps[0] == &x.Shard(0).Table.Reps[0] {
		t.Fatal("the clone shares the original's representative list")
	}
}

// TestEveryShardCarriesAPlane: every version holds a quantized plane over
// exactly its records — after Split of a built index and of a hand-built one
// with no plane, and after Load, CrackAll, AppendRecords, Clone and
// a refit.
func TestEveryShardCarriesAPlane(t *testing.T) {
	x, _, truth := modelIndex(t, 300, 30, 3)
	bare, _ := buildIndex(t, 300, 30)
	lx, err := shard.Split(&core.Index{Embeddings: bare.Embeddings, Table: bare.Table, Annotations: bare.Annotations}, 3)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	versions := map[string]*shard.Version{"split": x.Pin(), "split of a plane-less index": lx.Pin(), "load": loaded.Pin()}
	x.CrackAll(map[int]dataset.Annotation{7: truth[7], 211: truth[211]})
	versions["crack"] = x.Pin()
	if _, err := x.AppendRecords(extraFeatures(t, 9, 4)); err != nil {
		t.Fatal(err)
	}
	versions["append"], versions["clone"] = x.Pin(), x.Clone().Pin()
	x.CrackAndRequantize(nil, nil)
	versions["refit"] = x.Pin()
	for step, v := range versions {
		if err := v.Validate(); err != nil {
			t.Errorf("%s: %v", step, err)
		}
	}
}
