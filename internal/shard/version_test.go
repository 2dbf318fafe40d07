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
// scratch: every record's embedding, the shard count, and the one
// representative list and annotation map every shard shares. Shard s views
// records [s·total/n, (s+1)·total/n), and the neighbor rows are cluster's
// one-pass table over the whole matrix and that list.
type model struct {
	emb    vecmath.Matrix
	shards int
	reps   []int
	anns   map[int]dataset.Annotation
}

func newModel(ix *core.Index, shards int) *model {
	m := &model{emb: vecmath.NewMatrix(ix.NumRecords(), ix.Embeddings.Dim()), shards: shards,
		reps: slices.Clone(ix.Table.Reps), anns: maps.Clone(ix.Annotations)}
	copy(m.emb.Data(), ix.Embeddings.Data())
	return m
}

// crack adds, in order, the records of ids not yet annotated as
// representatives and returns how many it added.
func (m *model) crack(ids []int, anns map[int]dataset.Annotation) (added int) {
	for _, id := range ids {
		if _, ok := m.anns[id]; ok {
			continue
		}
		m.anns[id] = anns[id]
		m.reps = append(m.reps, id)
		added++
	}
	return added
}

// append embeds features with e onto the corpus.
func (m *model) append(e embed.Embedder, features [][]float64) {
	for _, f := range features {
		row := make([]float64, m.emb.Dim())
		embed.Into(e, row, f)
		m.emb.AppendRow(row)
	}
}

// sameState fails unless got's shard views hold the model's ranges,
// representative list and annotations, and the embedding and neighbor rows
// cluster computes from scratch over them, bit for bit.
func sameState(t *testing.T, step string, got *shard.Version, m *model, k int) {
	t.Helper()
	total := m.emb.Rows()
	if got.NumRecords() != total || got.NumShards() != m.shards {
		t.Fatalf("%s: %d records in %d shards, model %d in %d", step,
			got.NumRecords(), got.NumShards(), total, m.shards)
	}
	table := cluster.BuildTablePar(m.emb, m.reps, k, 1)
	for s := 0; s < got.NumShards(); s++ {
		g := got.Shard(s)
		if lo, hi := s*total/m.shards, (s+1)*total/m.shards; g.Lo != lo || g.Hi != hi {
			t.Fatalf("%s: shard %d covers [%d,%d), model [%d,%d)", step, s, g.Lo, g.Hi, lo, hi)
		}
		sameInts(t, fmt.Sprintf("%s: shard %d reps", step, s), g.Table.Reps, m.reps)
		for i := range g.Table.Neighbors {
			id := g.Lo + i
			sameBits(t, fmt.Sprintf("%s: record %d embedding", step, id), g.Embeddings.Row(i), m.emb.Row(id))
			sameNeighbors(t, fmt.Sprintf("%s: record %d", step, id), g.Table.Neighbors[i], table.Neighbors[id])
		}
		if !reflect.DeepEqual(g.Annotations, m.anns) {
			t.Fatalf("%s: shard %d annotations differ from the model (%d vs %d entries)",
				step, s, len(g.Annotations), len(m.anns))
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
	sc, di, err := v.PropagateNearest(score, nil)
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
	sc, di, err := p.v.PropagateNearest(score, nil)
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
// batches (in ID order and in the caller's), appends and whole-index
// replacements through the copy-on-write writers — at shards 1/2/4 and
// workers 1/2/4, cracks pruning through the quantized plane — and beside it
// through a model of what each write leaves. After every write the published version's tables equal cluster's
// from-scratch build over the model's representative lists, and every
// version pinned before any earlier write still propagates the bits it did
// then: no writer reaches memory a published version can read.
func TestVersionsMatchFromScratchReference(t *testing.T) {
	const n, reps, steps = 300, 30, 9
	for _, shards := range []int{1, 2, 4} {
		for _, workers := range []int{1, 2, 4} {
			ix, ds := buildIndex(t, n, reps)
			twin, _ := buildIndex(t, n, reps)
			x, err := shard.Split(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			x.SetParallelism(workers)
			m := newModel(twin, shards)
			truth := append([]dataset.Annotation(nil), ds.Truth...)
			r := rand.New(rand.NewSource(int64(100*shards + workers)))
			cfg := fmt.Sprintf("shards=%d workers=%d", shards, workers)
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
					if added, want := x.CrackAll(batch), m.crack(ids, batch); added != want {
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
					if added, want := x.CrackInOrder(ids, batch), m.crack(ids, batch); added != want {
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
					// A reload: the whole state swapped for a deep copy
					// that may be one representative ahead.
					c := x.Clone()
					id := r.Intn(x.NumRecords())
					c.Crack(id, truth[id])
					x.Replace(c)
					m.crack([]int{id}, map[int]dataset.Annotation{id: truth[id]})
				}
				sameState(t, step, x.Pin(), m, twin.Table.K)
				for _, p := range pinned {
					p.check(t, step)
				}
			}
		}
	}
}

// TestVersionSharesOneRepresentativeSet: a version pinned before a crack
// batch still propagates its own bits and sees none of the batch's
// representatives, and a clone holds a representative list of its own.
func TestVersionSharesOneRepresentativeSet(t *testing.T) {
	score := core.CountScore("car")
	for _, shards := range []int{1, 2, 3} {
		cfg := fmt.Sprintf("shards=%d", shards)
		ix, ds := buildIndex(t, 300, 30)
		x, err := shard.Split(ix, shards)
		if err != nil {
			t.Fatal(err)
		}

		pinned := x.Pin()
		want, err := pinned.Propagate(score)
		if err != nil {
			t.Fatal(err)
		}
		wantReps := slices.Clone(pinned.Shard(0).Table.Reps)
		batch := map[int]dataset.Annotation{}
		for id := 0; len(batch) < 5; id += 7 {
			if !pinned.Annotated(id) {
				batch[id] = ds.Truth[id]
			}
		}
		if added := x.CrackAll(batch); added != len(batch) || x.RepCount() != len(wantReps)+len(batch) {
			t.Fatalf("%s: crack added %d of %d, %d representatives", cfg, added, len(batch), x.RepCount())
		}
		got, err := pinned.Propagate(score)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, cfg+" pinned before the crack", got, want)
		sameInts(t, cfg+" pinned reps", pinned.Shard(0).Table.Reps, wantReps)
		for id := range batch {
			if pinned.Annotated(id) {
				t.Fatalf("%s: the pinned version sees record %d, cracked after it", cfg, id)
			}
		}

		if c := x.Clone(); &c.Shard(0).Table.Reps[0] == &x.Shard(0).Table.Reps[0] {
			t.Fatalf("%s: the clone shares the original's representative list", cfg)
		}
	}
}
