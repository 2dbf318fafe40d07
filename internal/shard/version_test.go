package shard_test

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/shard"
	"repro/internal/vecmath"
)

// model is what the published version must hold after each write, kept from
// scratch: every record's embedding, and per shard the range, representative
// list and annotations its writes left — a rolling reload leaves one shard a
// representative ahead of its peers. Each shard's neighbor rows are then
// cluster's one-pass table over the whole matrix and that shard's list.
type model struct {
	emb    vecmath.Matrix
	lo, hi []int
	reps   [][]int
	anns   []map[int]dataset.Annotation
}

func newModel(ix *core.Index, v *shard.Version) *model {
	m := &model{emb: vecmath.NewMatrix(ix.NumRecords(), ix.Embeddings.Dim())}
	copy(m.emb.Data(), ix.Embeddings.Data())
	for s := 0; s < v.NumShards(); s++ {
		m.lo = append(m.lo, v.Shard(s).Lo)
		m.hi = append(m.hi, v.Shard(s).Hi)
		m.reps = append(m.reps, slices.Clone(ix.Table.Reps))
		m.anns = append(m.anns, maps.Clone(ix.Annotations))
	}
	return m
}

// owner is the shard whose range holds id.
func (m *model) owner(id int) int {
	return sort.Search(len(m.hi), func(s int) bool { return m.hi[s] > id })
}

// crack adds, in order, the records of ids its owner has not annotated as
// representatives of the shards in only (every shard when only is nil), and
// returns how many no shard had before.
func (m *model) crack(ids []int, anns map[int]dataset.Annotation, only []int) (added int) {
	var fresh []int
	for _, id := range ids {
		if _, ok := m.anns[m.owner(id)][id]; ok {
			continue
		}
		fresh = append(fresh, id)
		if !slices.ContainsFunc(m.reps, func(reps []int) bool { return slices.Contains(reps, id) }) {
			added++
		}
	}
	if only == nil {
		for s := range m.reps {
			only = append(only, s)
		}
	}
	for _, id := range fresh {
		for _, s := range only {
			m.anns[s][id] = anns[id]
			if !slices.Contains(m.reps[s], id) {
				m.reps[s] = append(m.reps[s], id)
			}
		}
	}
	return added
}

// append embeds features with e onto the corpus; the last shard grows.
func (m *model) append(e embed.Embedder, features [][]float64) {
	for _, f := range features {
		row := make([]float64, m.emb.Dim())
		embed.Into(e, row, f)
		m.emb.AppendRow(row)
	}
	m.hi[len(m.hi)-1] = m.emb.Rows()
}

// sameState fails unless got's shards hold the model's ranges, representative
// lists and annotations, and the embedding and neighbor rows cluster computes
// from scratch over them, bit for bit.
func sameState(t *testing.T, step string, got *shard.Version, m *model, k int) {
	t.Helper()
	if got.NumRecords() != m.emb.Rows() || got.NumShards() != len(m.reps) {
		t.Fatalf("%s: %d records in %d shards, model %d in %d", step,
			got.NumRecords(), got.NumShards(), m.emb.Rows(), len(m.reps))
	}
	for s := 0; s < got.NumShards(); s++ {
		g := got.Shard(s)
		if g.Lo != m.lo[s] || g.Hi != m.hi[s] {
			t.Fatalf("%s: shard %d covers [%d,%d), model [%d,%d)", step, s, g.Lo, g.Hi, m.lo[s], m.hi[s])
		}
		sameInts(t, fmt.Sprintf("%s: shard %d reps", step, s), g.Table.Reps, m.reps[s])
		table := cluster.BuildTablePar(m.emb, m.reps[s], k, 1)
		for i := range g.Table.Neighbors {
			id := g.Lo + i
			sameBits(t, fmt.Sprintf("%s: record %d embedding", step, id), g.Embeddings.Row(i), m.emb.Row(id))
			sameNeighbors(t, fmt.Sprintf("%s: record %d", step, id), g.Table.Neighbors[i], table.Neighbors[id])
		}
		if !reflect.DeepEqual(g.Annotations, m.anns[s]) {
			t.Fatalf("%s: shard %d annotations differ from the model (%d vs %d entries)",
				step, s, len(g.Annotations), len(m.anns[s]))
		}
	}
}

// pinnedVersion is a version held across later writes with what it propagated
// when it was pinned, and a column of it in which every other record's exact
// score — a number that names the record — was recorded then.
type pinnedVersion struct {
	step             string
	v                *shard.Version
	weighted, scores []float64
	dists            []float64
	reps             int
}

func pinVersion(t *testing.T, step string, v *shard.Version) pinnedVersion {
	t.Helper()
	score := core.CountScore("car")
	w, err := v.Propagate(score)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	sc, di, err := v.PropagateNearest(score)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	// A version no write has published since the last pin is pinned again with
	// its column retained; one a write did publish starts with no exact score.
	col, hit, err := v.Column(shard.Scorer{Name: "count/car", Score: score}, shard.ColumnWeighted, nil)
	if err != nil {
		t.Fatalf("%s: %v", step, err)
	}
	for id := range col.Scores {
		if _, known := col.Value(id); known && !hit {
			t.Fatalf("%s: a column built for this version already knows record %d's exact score", step, id)
		}
		if id%2 == 0 {
			col.SetValue(id, float64(id))
		}
	}
	return pinnedVersion{step: step, v: v, weighted: w, scores: sc, dists: di, reps: v.RepCount()}
}

// check fails unless the version still propagates the bits it did when
// pinned and its column still knows every exact score recorded then.
func (p pinnedVersion) check(t *testing.T, after string) {
	t.Helper()
	score := core.CountScore("car")
	w, err := p.v.Propagate(score)
	if err != nil {
		t.Fatalf("version pinned before %s, after %s: %v", p.step, after, err)
	}
	sc, di, err := p.v.PropagateNearest(score)
	if err != nil {
		t.Fatalf("version pinned before %s, after %s: %v", p.step, after, err)
	}
	name := fmt.Sprintf("version pinned before %s, after %s", p.step, after)
	sameBits(t, name+": weighted", w, p.weighted)
	sameBits(t, name+": nearest scores", sc, p.scores)
	sameBits(t, name+": nearest dists", di, p.dists)
	if got := p.v.RepCount(); got != p.reps {
		t.Fatalf("%s: %d representatives, had %d", name, got, p.reps)
	}
	col, hit, err := p.v.Column(shard.Scorer{Name: "count/car", Score: score}, shard.ColumnWeighted, nil)
	if err != nil || !hit {
		t.Fatalf("%s: column refetch hit=%v err=%v", name, hit, err)
	}
	for id := 0; id < len(col.Scores); id += 2 {
		if v, known := col.Value(id); !known || v != float64(id) {
			t.Fatalf("%s: Value(%d) = %v, %v, recorded %d", name, id, v, known, id)
		}
	}
}

// TestVersionsMatchFromScratchReference drives a seeded sequence of crack
// batches (in ID order and in the caller's), appends and shard replacements
// through the copy-on-write writers — at shards 1/2/4, workers 1/2/4,
// quantized off and on — and beside it through a model of what each write
// leaves. After every write the published version's tables equal cluster's
// from-scratch build over the model's representative lists, and every
// version pinned before any earlier write still propagates the bits it did
// then: no writer reaches memory a published version can read.
func TestVersionsMatchFromScratchReference(t *testing.T) {
	const n, reps, steps = 300, 30, 9
	for _, quantized := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4} {
				build := buildIndex
				if quantized {
					build = buildQuantIndex
				}
				ix, ds := build(t, n, reps)
				twin, _ := build(t, n, reps)
				x, err := shard.Split(ix, shards)
				if err != nil {
					t.Fatal(err)
				}
				x.SetParallelism(workers)
				m := newModel(twin, x.Pin())
				truth := append([]dataset.Annotation(nil), ds.Truth...)
				r := rand.New(rand.NewSource(int64(100*shards + workers)))
				cfg := fmt.Sprintf("quantized=%v shards=%d workers=%d", quantized, shards, workers)
				var pinned []pinnedVersion
				for i := 0; i < steps; i++ {
					op := []string{"crack", "crack-in-order", "append", "replace"}[r.Intn(4)]
					step := fmt.Sprintf("%s step %d %s", cfg, i, op)
					pinned = append(pinned, pinVersion(t, step, x.Pin()))
					switch op {
					case "crack":
						// A batch of fresh records with, now and then, one
						// that is already a representative (a no-op inside
						// the batch).
						batch := map[int]dataset.Annotation{}
						for len(batch) < 1+r.Intn(5) {
							id := r.Intn(x.NumRecords())
							batch[id] = truth[id]
						}
						var ids []int
						for id := range batch {
							ids = append(ids, id)
						}
						sort.Ints(ids)
						if added, want := x.CrackAll(batch), m.crack(ids, batch, nil); added != want {
							t.Fatalf("%s: CrackAll reports %d representatives added, model %d", step, added, want)
						}
					case "crack-in-order":
						// The refresher's batch: a caller-chosen order, which
						// must leave what that sequence of single cracks did.
						batch := map[int]dataset.Annotation{}
						var ids []int
						for len(ids) < 2+r.Intn(4) {
							if id := r.Intn(x.NumRecords()); batch[id] == nil {
								batch[id] = truth[id]
								ids = append(ids, id)
							}
						}
						if added, want := x.CrackInOrder(ids, batch), m.crack(ids, batch, nil); added != want {
							t.Fatalf("%s: CrackInOrder reports %d representatives added, model %d", step, added, want)
						}
					case "append":
						feats, anns := extraRecords(t, 3+r.Intn(4), int64(1000+i))
						truth = append(truth, anns...)
						if _, err := x.AppendRecords(feats); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						m.append(twin.Embedder, feats)
					case "replace":
						// A rolling reload caught half way: the replacement
						// carries one more representative than its peers.
						c := x.Clone()
						id := r.Intn(x.NumRecords())
						c.Crack(id, truth[id])
						s := r.Intn(shards)
						if err := x.ReplaceShard(s, c.Shard(s)); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						m.crack([]int{id}, map[int]dataset.Annotation{id: truth[id]}, []int{s})
					}
					sameState(t, step, x.Pin(), m, twin.Table.K)
					for _, p := range pinned {
						p.check(t, step)
					}
				}
			}
		}
	}
}
