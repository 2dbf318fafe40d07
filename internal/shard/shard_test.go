package shard_test

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"math"
	"slices"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/embed"
	"repro/internal/labeler"
	"repro/internal/labeler/store"
	"repro/internal/query/limitq"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
	"repro/internal/vecmath"
)

// buildIndex builds a deterministic TASTI-PT index. Build is seed-driven, so
// repeated calls with the same arguments produce bitwise-identical indexes —
// the property the invariance tests lean on, since Split takes ownership of
// its argument and comparisons therefore need a fresh twin.
func buildIndex(t *testing.T, n, reps int) (*core.Index, *dataset.Dataset) {
	t.Helper()
	ds, err := dataset.Generate("night-street", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	lab := labeler.NewOracle(ds, "oracle", labeler.MaskRCNNCost)
	ix, err := core.Build(core.PretrainedConfig(reps, 2), ds, lab)
	if err != nil {
		t.Fatal(err)
	}
	return ix, ds
}

// sameBits fails unless got and want are float64-bitwise identical — the
// determinism contract is exact bits, not approximate values.
func sameBits(t *testing.T, name string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (bits %x), want %v (bits %x)",
				name, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// reference is the state a sequence of cracks and appends on a served index
// must reach bit for bit, computed without shards or the quantized plane:
// cluster's float table over the whole embedding matrix, evolved through the
// float API, and propagated with the shared kernel.
type reference struct {
	emb   vecmath.Matrix
	table *cluster.Table
	anns  map[int]dataset.Annotation
}

// newReference is built index ix's float table over its representatives,
// the records of appended embedded by its model and scanned onto it, then
// every record of cracked that is not yet a representative added as one, in
// order, by the float sweep (AddRepresentativePar). The table depends only on
// the final corpus and representative order, so cracked may list cracks made
// before and after the append, appended records included, in the order the
// index took them.
func newReference(ix *core.Index, appended [][]float64, cracked []int, anns map[int]dataset.Annotation) reference {
	n, k := ix.NumRecords(), ix.Table.K
	emb := vecmath.NewMatrix(n+len(appended), ix.Embeddings.Dim())
	copy(emb.Data(), ix.Embeddings.Data())
	for i, f := range appended {
		embed.Into(ix.Embedder, emb.Row(n+i), f)
	}
	table := cluster.BuildTablePar(emb.RowRange(0, n), slices.Clone(ix.Table.Reps), k, 1)
	if len(appended) > 0 {
		table.Neighbors = append(table.Neighbors, cluster.ScanRows(emb.RowRange(n, emb.Rows()),
			vecmath.GatherRows(emb, table.Reps), table.Reps, k, 1)...)
	}
	all := maps.Clone(ix.Annotations)
	for _, id := range cracked {
		if _, ok := all[id]; !ok {
			table.AddRepresentativePar(emb, id, 1)
			all[id] = anns[id]
		}
	}
	return reference{emb: emb, table: table, anns: all}
}

// propagate is the reference's weighted propagation over k neighbors.
func (r reference) propagate(score core.ScoreFunc, k int) []float64 {
	n := r.emb.Rows()
	repScores := make([]float64, n)
	for _, rep := range r.table.Reps {
		repScores[rep] = score(r.anns[rep])
	}
	out := make([]float64, n)
	core.PropagateKRange(out, r.table.Neighbors, repScores, k, 0, n)
	return out
}

// nearest is the reference's nearest-representative scores and distances.
func (r reference) nearest(score core.ScoreFunc) (scores, dists []float64) {
	n := r.emb.Rows()
	scores, dists = make([]float64, n), make([]float64, n)
	for i, nbrs := range r.table.Neighbors {
		scores[i], dists[i] = score(r.anns[nbrs[0].Rep]), nbrs[0].Dist
	}
	return scores, dists
}

// sameTable fails unless every shard view of v holds the reference's
// representative list, and its embedding and neighbor rows, bit for bit.
func sameTable(t *testing.T, name string, v *shard.Version, ref reference) {
	t.Helper()
	if v.NumRecords() != ref.emb.Rows() {
		t.Fatalf("%s: %d records, reference %d", name, v.NumRecords(), ref.emb.Rows())
	}
	for s := 0; s < v.NumShards(); s++ {
		sh := v.Shard(s)
		sameInts(t, fmt.Sprintf("%s: shard %d reps", name, s), sh.Table.Reps, ref.table.Reps)
		for i := range sh.Table.Neighbors {
			id := sh.Lo + i
			sameBits(t, fmt.Sprintf("%s: record %d embedding", name, id), sh.Embeddings.Row(i), ref.emb.Row(id))
			sameNeighbors(t, fmt.Sprintf("%s: record %d", name, id), sh.Table.Neighbors[i], ref.table.Neighbors[id])
		}
	}
}

// sameNeighbors fails unless two neighbor rows name the same representatives
// at float64-bitwise identical distances.
func sameNeighbors(t *testing.T, name string, got, want []cluster.Neighbor) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d neighbors, want %d", name, len(got), len(want))
	}
	for j := range want {
		if got[j].Rep != want[j].Rep || math.Float64bits(got[j].Dist) != math.Float64bits(want[j].Dist) {
			t.Fatalf("%s: neighbor %d = %+v, want %+v", name, j, got[j], want[j])
		}
	}
}

func sameInts(t *testing.T, name string, got, want []int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", name, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s[%d] = %d, want %d", name, i, got[i], want[i])
		}
	}
}

// TestShardCountInvariance is the headline property: every scatter-gather
// query path produces output bitwise identical to one table over the whole
// corpus, at every shard count and every worker count.
func TestShardCountInvariance(t *testing.T) {
	const n, reps = 500, 60
	base, _ := buildIndex(t, n, reps)
	ref := newReference(base, nil, nil, nil)
	score := core.CountScore("car")
	wantProxy := ref.propagate(score, base.Table.K)
	wantScores, wantDists := ref.nearest(score)
	wantOrder := limitq.Order(wantScores, wantDists)
	wantProxyOrder := limitq.Order(wantProxy, nil)

	for _, shards := range []int{1, 2, 3, 4} {
		for _, par := range []int{1, 4} {
			ix, _ := buildIndex(t, n, reps)
			x, err := shard.Split(ix, shards)
			if err != nil {
				t.Fatal(err)
			}
			x.SetParallelism(par)
			sameTable(t, fmt.Sprintf("shards=%d par=%d", shards, par), x.Pin(), ref)

			got, err := x.Propagate(score)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "Propagate", got, wantProxy)

			gotScores, gotDists, err := x.PropagateNearest(score)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "PropagateNearest scores", gotScores, wantScores)
			sameBits(t, "PropagateNearest dists", gotDists, wantDists)

			sameInts(t, "LimitOrder", x.LimitOrder(gotScores, gotDists), wantOrder)
			sameInts(t, "LimitOrder no-ties", x.LimitOrder(got, nil), wantProxyOrder)
			t.Logf("shards=%d par=%d: all paths bitwise identical", shards, par)
		}
	}
}

// TestCrackInvariance: cracking through the sharded surface, in ascending ID
// order, evolves the table into the one a from-scratch build over the final
// representative list computes — at shard counts 1 and 3, pruning
// through the quantized plane — and propagates its bits afterwards.
func TestCrackInvariance(t *testing.T) {
	const n, reps = 400, 40
	base, ds := buildIndex(t, n, reps)
	anns := map[int]dataset.Annotation{}
	var ids []int
	for id := 5; id < n; id += 29 {
		anns[id] = ds.Truth[id]
		ids = append(ids, id)
	}
	ref := newReference(base, nil, ids, anns)
	score := core.CountScore("car")
	wantProxy := ref.propagate(score, base.Table.K)

	for _, shards := range []int{1, 3} {
		name := fmt.Sprintf("shards=%d", shards)
		ix, _ := buildIndex(t, n, reps)
		x, err := shard.Split(ix, shards)
		if err != nil {
			t.Fatal(err)
		}
		if added := x.CrackAll(anns); added != len(ref.table.Reps)-reps {
			t.Fatalf("%s: CrackAll added %d reps, reference %d", name, added, len(ref.table.Reps)-reps)
		}
		sameTable(t, name, x.Pin(), ref)
		got, err := x.Propagate(score)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, name+": post-crack Propagate", got, wantProxy)
		if err := x.Pin().Validate(); err != nil {
			t.Errorf("%s: invalid after cracking: %v", name, err)
		}

		// Cracking an already-annotated record is a no-op.
		before := x.RepCount()
		x.Crack(ids[0], anns[ids[0]])
		if x.RepCount() != before {
			t.Errorf("%s: re-cracking a representative changed RepCount %d -> %d", name, before, x.RepCount())
		}
	}
}

// TestPersistRoundTrip: Save then Load restores an index whose propagation is
// bitwise identical and whose build stats survive.
func TestPersistRoundTrip(t *testing.T) {
	ix, _ := buildIndex(t, 300, 30)
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	score := core.CountScore("car")
	want, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := shard.Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if loaded.NumShards() != 3 || loaded.NumRecords() != 300 {
		t.Fatalf("loaded %d shards over %d records, want 3 over 300",
			loaded.NumShards(), loaded.NumRecords())
	}
	if got, want := loaded.Pin().Stats.TotalLabelCalls(), x.Pin().Stats.TotalLabelCalls(); got != want {
		t.Errorf("loaded stats report %d label calls, want %d", got, want)
	}
	got, err := loaded.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "loaded Propagate", got, want)
}

// TestSnapshotKindMismatch pins the typed-error contract: an index snapshot
// and a label-store snapshot each reject the other's loader with
// snapshot.ErrKind, never a decode mystery.
func TestSnapshotKindMismatch(t *testing.T) {
	var buf bytes.Buffer
	if err := store.New(store.Options{}).Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrKind) {
		t.Errorf("shard.Load of a label store: %v, want ErrKind", err)
	}

	ix, _ := buildIndex(t, 200, 20)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Load(bytes.NewReader(buf.Bytes()), store.Options{}); !errors.Is(err, snapshot.ErrKind) {
		t.Errorf("store.Load of a sharded snapshot: %v, want ErrKind", err)
	}
}

// TestValidation covers the argument guards: illegal shard counts at Split,
// illegal neighbor counts at PropagateK, and a missing representative
// annotation surfacing as core.ErrNoAnnotation through the scatter.
func TestValidation(t *testing.T) {
	ix, _ := buildIndex(t, 100, 10)
	if _, err := shard.Split(ix, 0); err == nil {
		t.Error("Split accepted 0 shards")
	}
	if _, err := shard.Split(ix, 101); err == nil {
		t.Error("Split accepted more shards than records")
	}
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	score := core.CountScore("car")
	if _, err := x.Pin().PropagateK(score, 0, nil); err == nil {
		t.Error("PropagateK accepted k=0")
	}
	if _, err := x.Pin().PropagateK(score, x.K()+1, nil); err == nil {
		t.Errorf("PropagateK accepted k=%d > K=%d", x.K()+1, x.K())
	}

	sh := x.Shard(1)
	delete(sh.Annotations, sh.Table.Reps[0])
	if _, err := x.Propagate(score); !errors.Is(err, core.ErrNoAnnotation) {
		t.Errorf("Propagate with a missing annotation: %v, want ErrNoAnnotation", err)
	}
}

// TestIndexTelemetry: a sharded propagation counts once at the gather, and
// the index publishes its representative count, under the documented names.
func TestIndexTelemetry(t *testing.T) {
	ix, _ := buildIndex(t, 200, 20)
	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	x.SetTelemetry(reg)
	if _, err := x.Propagate(core.CountScore("car")); err != nil {
		t.Fatal(err)
	}
	if got := reg.Gauge("tasti_index_reps").Value(); got != 20 {
		t.Errorf("index reps gauge = %v, want 20", got)
	}
	if got := reg.Counter(`tasti_propagate_total{kind="weighted"}`).Value(); got != 1 {
		t.Errorf("gather-level propagate counter = %d, want 1", got)
	}
}
