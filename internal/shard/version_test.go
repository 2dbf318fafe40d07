package shard_test

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/parallel"
	"repro/internal/shard"
	"repro/internal/vecmath"
)

// The reference below is the cracking this package ran before index versions
// existed, kept verbatim (receivers turned into parameters): Crack recorded
// the annotation in each live shard's map and let the shard's table shift the
// new representative into each neighbor row IN PLACE. It is what the
// copy-on-write crack must reproduce bit for bit — and, mutating shared rows
// as it does, exactly what a pinned version must never observe.

// refAddRepresentativeEmb is the in-place cluster.Table.AddRepresentativeEmb
// over the float rows.
func refAddRepresentativeEmb(t *cluster.Table, embeddings vecmath.Matrix, rep int, repEmb []float64, p int) {
	for _, existing := range t.Reps {
		if existing == rep {
			return
		}
	}
	t.Reps = append(t.Reps, rep)
	parallel.ForChunks(p, embeddings.Rows(), func(_ int, s parallel.Span) {
		for i := s.Lo; i < s.Hi; i++ {
			d := math.Sqrt(vecmath.SquaredL2(embeddings.Row(i), repEmb))
			nbrs := t.Neighbors[i]
			if len(nbrs) >= t.K && d >= nbrs[len(nbrs)-1].Dist {
				continue
			}
			pos := sort.Search(len(nbrs), func(j int) bool { return nbrs[j].Dist > d })
			nbrs = append(nbrs, cluster.Neighbor{})
			copy(nbrs[pos+1:], nbrs[pos:])
			nbrs[pos] = cluster.Neighbor{Rep: rep, Dist: d}
			if len(nbrs) > t.K {
				nbrs = nbrs[:t.K]
			}
			t.Neighbors[i] = nbrs
		}
	})
}

// refAddRepresentativeQuant is the in-place cluster.Table.AddRepresentativeEmb
// over the quantized plane, less its scan statistics.
func refAddRepresentativeQuant(t *cluster.Table, embeddings vecmath.Matrix, quant vecmath.QuantMatrix, rep int, repEmb []float64, p int) {
	for _, existing := range t.Reps {
		if existing == rep {
			return
		}
	}
	t.Reps = append(t.Reps, rep)
	qrow := make([]uint8, quant.Dim())
	qErr := vecmath.QuantizeRowInto(qrow, repEmb, quant.Params())
	codeDists := make([]int64, embeddings.Rows()) // chunk-disjoint writes
	parallel.ForChunks(p, embeddings.Rows(), func(_ int, s parallel.Span) {
		vecmath.CodeDistBatch(qrow, quant.RowRange(s.Lo, s.Hi), codeDists[s.Lo:s.Hi])
		for i := s.Lo; i < s.Hi; i++ {
			nbrs := t.Neighbors[i]
			if len(nbrs) >= t.K {
				if lb := quant.LowerBound(codeDists[i], qErr); lb >= nbrs[len(nbrs)-1].Dist {
					continue
				}
			}
			d := math.Sqrt(vecmath.SquaredL2(embeddings.Row(i), repEmb))
			if len(nbrs) >= t.K && d >= nbrs[len(nbrs)-1].Dist {
				continue
			}
			pos := sort.Search(len(nbrs), func(j int) bool { return nbrs[j].Dist > d })
			nbrs = append(nbrs, cluster.Neighbor{})
			copy(nbrs[pos+1:], nbrs[pos:])
			nbrs[pos] = cluster.Neighbor{Rep: rep, Dist: d}
			if len(nbrs) > t.K {
				nbrs = nbrs[:t.K]
			}
			t.Neighbors[i] = nbrs
		}
	})
}

// refCrack is the in-place Index.Crack over x's live shards. x must be an
// index nothing else reads: this writes the published shards.
func refCrack(x *shard.Index, id int, ann dataset.Annotation, par int) {
	total := x.NumRecords()
	if id < 0 || id >= total {
		panic(fmt.Sprintf("shard: crack id %d out of range [0,%d)", id, total))
	}
	n := x.NumShards()
	owner := x.Shard(sort.Search(n, func(s int) bool { return x.Shard(s).Hi > id }))
	if _, ok := owner.Annotations[id]; ok {
		return
	}
	repEmb := owner.Embeddings.Row(id - owner.Lo)
	for s := 0; s < n; s++ {
		sh := x.Shard(s)
		sh.Annotations[id] = ann
		if sh.Quant.Enabled() {
			refAddRepresentativeQuant(sh.Table, sh.Embeddings, sh.Quant, id, repEmb, par)
		} else {
			refAddRepresentativeEmb(sh.Table, sh.Embeddings, id, repEmb, par)
		}
	}
}

// refCrackAll is the in-place Index.CrackAll.
func refCrackAll(x *shard.Index, anns map[int]dataset.Annotation, par int) {
	ids := make([]int, 0, len(anns))
	for id := range anns {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		refCrack(x, id, anns[id], par)
	}
}

// sameState fails unless the published version of got and the reference hold
// the same tables, representative lists and annotations, shard by shard.
func sameState(t *testing.T, step string, got *shard.Version, ref *shard.Index) {
	t.Helper()
	if got.NumRecords() != ref.NumRecords() || got.NumShards() != ref.NumShards() {
		t.Fatalf("%s: %d records in %d shards, reference %d in %d", step,
			got.NumRecords(), got.NumShards(), ref.NumRecords(), ref.NumShards())
	}
	for s := 0; s < got.NumShards(); s++ {
		g, r := got.Shard(s), ref.Shard(s)
		if g.Lo != r.Lo || g.Hi != r.Hi {
			t.Fatalf("%s: shard %d covers [%d,%d), reference [%d,%d)", step, s, g.Lo, g.Hi, r.Lo, r.Hi)
		}
		sameInts(t, fmt.Sprintf("%s: shard %d reps", step, s), g.Table.Reps, r.Table.Reps)
		for i := range r.Table.Neighbors {
			gr, rr := g.Table.Neighbors[i], r.Table.Neighbors[i]
			if len(gr) != len(rr) {
				t.Fatalf("%s: shard %d row %d has %d neighbors, reference %d", step, s, i, len(gr), len(rr))
			}
			for j := range rr {
				if gr[j].Rep != rr[j].Rep || math.Float64bits(gr[j].Dist) != math.Float64bits(rr[j].Dist) {
					t.Fatalf("%s: shard %d row %d neighbor %d = %+v, reference %+v", step, s, i, j, gr[j], rr[j])
				}
			}
		}
		if !reflect.DeepEqual(g.Annotations, r.Annotations) {
			t.Fatalf("%s: shard %d annotations differ from the reference (%d vs %d entries)",
				step, s, len(g.Annotations), len(r.Annotations))
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

// TestVersionsMatchInPlaceReference drives a seeded sequence of crack
// batches (in ID order and in the caller's), appends and shard replacements
// through the copy-on-write writers and, beside it, through the in-place
// reference on a private deep copy — at shards 1/2/4, workers 1/2/4,
// quantized off and on. After every write the
// published version's tables, representative lists and annotations equal the
// reference's exactly, and every version pinned before any earlier write
// still propagates the bits it did then: no writer reaches memory a published
// version can read.
func TestVersionsMatchInPlaceReference(t *testing.T) {
	const n, reps, steps = 300, 30, 9
	for _, quantized := range []bool{false, true} {
		for _, shards := range []int{1, 2, 4} {
			for _, workers := range []int{1, 2, 4} {
				build := buildIndex
				if quantized {
					build = buildQuantIndex
				}
				ix, ds := build(t, n, reps)
				x, err := shard.Split(ix, shards)
				if err != nil {
					t.Fatal(err)
				}
				x.SetParallelism(workers)
				ref := x.Clone()
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
						want := ref.RepCount()
						refCrackAll(ref, batch, workers)
						want = ref.RepCount() - want
						if added := x.CrackAll(batch); added != want {
							t.Fatalf("%s: CrackAll reports %d representatives added, reference grew by %d", step, added, want)
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
						want := ref.RepCount()
						for _, id := range ids {
							refCrack(ref, id, batch[id], workers)
						}
						want = ref.RepCount() - want
						if added := x.CrackInOrder(ids, batch); added != want {
							t.Fatalf("%s: CrackInOrder reports %d representatives added, reference grew by %d", step, added, want)
						}
					case "append":
						feats, anns := extraRecords(t, 3+r.Intn(4), int64(1000+i))
						truth = append(truth, anns...)
						for _, idx := range []*shard.Index{x, ref} {
							if _, err := idx.AppendRecords(feats); err != nil {
								t.Fatalf("%s: %v", step, err)
							}
						}
					case "replace":
						// A rolling reload caught half way: the replacement
						// carries one more representative than its peers. The
						// reference gets its own deep copy — it cracks in place.
						c := x.Clone()
						id := r.Intn(x.NumRecords())
						c.Crack(id, truth[id])
						s := r.Intn(shards)
						if err := x.ReplaceShard(s, c.Shard(s)); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
						if err := ref.ReplaceShard(s, c.Clone().Shard(s)); err != nil {
							t.Fatalf("%s: %v", step, err)
						}
					}
					sameState(t, step, x.Pin(), ref)
					for _, p := range pinned {
						p.check(t, step)
					}
				}
			}
		}
	}
}
