package shard_test

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/dataset"
	"repro/internal/labeler"
	"repro/internal/query/limitq"
	"repro/internal/shard"
	"repro/internal/snapshot"
	"repro/internal/telemetry"
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
// query path produces output bitwise identical to the unsharded index, at
// every shard count and every worker count.
func TestShardCountInvariance(t *testing.T) {
	const n, reps = 500, 60
	base, _ := buildIndex(t, n, reps)
	score := core.CountScore("car")
	wantProxy, err := base.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	wantScores, wantDists, err := base.PropagateNearest(score)
	if err != nil {
		t.Fatal(err)
	}
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

// TestCrackInvariance: cracking through the sharded surface evolves every
// shard's table exactly as the one global table would — same representative
// set, bitwise-identical propagation afterwards.
func TestCrackInvariance(t *testing.T) {
	const n, reps = 400, 40
	base, ds := buildIndex(t, n, reps)
	anns := map[int]dataset.Annotation{}
	for id := 5; id < n; id += 29 {
		anns[id] = ds.Truth[id]
	}
	base.CrackAll(anns)
	score := core.CountScore("car")
	wantProxy, err := base.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}

	ix, _ := buildIndex(t, n, reps)
	x, err := shard.Split(ix, 3)
	if err != nil {
		t.Fatal(err)
	}
	x.CrackAll(anns)
	if got, want := x.RepCount(), len(base.Table.Reps); got != want {
		t.Fatalf("sharded crack grew to %d reps, unsharded to %d", got, want)
	}
	got, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "post-crack Propagate", got, wantProxy)
	for s := 0; s < x.NumShards(); s++ {
		if err := x.Shard(s).Validate(); err != nil {
			t.Errorf("shard %d invalid after cracking: %v", s, err)
		}
	}

	// Cracking an already-annotated record is a no-op, mirroring core.
	before := x.RepCount()
	rep := x.Shard(0).Table.Reps[0]
	x.Crack(rep, ds.Truth[rep])
	if x.RepCount() != before {
		t.Errorf("cracking an existing representative changed RepCount %d -> %d", before, x.RepCount())
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

// TestLoadShardAndReplace: a single shard lifts out of the snapshot without
// its peers and hot-swaps into a serving index without changing any bits.
func TestLoadShardAndReplace(t *testing.T) {
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

	sh, err := shard.LoadShard(bytes.NewReader(buf.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	if live := x.Shard(1); sh.Lo != live.Lo || sh.Hi != live.Hi {
		t.Fatalf("loaded shard covers [%d,%d), serving shard covers [%d,%d)",
			sh.Lo, sh.Hi, live.Lo, live.Hi)
	}
	if err := x.ReplaceShard(1, sh); err != nil {
		t.Fatal(err)
	}
	got, err := x.Propagate(score)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "post-replace Propagate", got, want)

	// A replacement covering the wrong range, or a nonsense position, is
	// rejected and leaves the serving set untouched.
	if err := x.ReplaceShard(0, sh); err == nil {
		t.Error("ReplaceShard accepted a shard covering the wrong range")
	}
	if err := x.ReplaceShard(5, sh); err == nil {
		t.Error("ReplaceShard accepted an out-of-range position")
	}
	if _, err := shard.LoadShard(bytes.NewReader(buf.Bytes()), 9); err == nil {
		t.Error("LoadShard accepted an out-of-range shard number")
	}
}

// TestSnapshotKindMismatch pins the typed-error contract cmd/tastiserve's
// format fallback depends on: each container kind rejects the other with
// snapshot.ErrKind, never a decode mystery.
func TestSnapshotKindMismatch(t *testing.T) {
	ix, _ := buildIndex(t, 200, 20)
	var buf bytes.Buffer
	if err := ix.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := shard.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrKind) {
		t.Errorf("shard.Load of a single-index snapshot: %v, want ErrKind", err)
	}

	x, err := shard.Split(ix, 2)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := x.Save(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := core.Load(bytes.NewReader(buf.Bytes())); !errors.Is(err, snapshot.ErrKind) {
		t.Errorf("core.Load of a sharded snapshot: %v, want ErrKind", err)
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
	if _, err := x.Pin().PropagateK(score, 0); err == nil {
		t.Error("PropagateK accepted k=0")
	}
	if _, err := x.Pin().PropagateK(score, x.K()+1); err == nil {
		t.Errorf("PropagateK accepted k=%d > K=%d", x.K()+1, x.K())
	}

	sh := x.Shard(1)
	delete(sh.Annotations, sh.Table.Reps[0])
	if _, err := x.Propagate(score); !errors.Is(err, core.ErrNoAnnotation) {
		t.Errorf("Propagate with a missing annotation: %v, want ErrNoAnnotation", err)
	}
}

// TestPerShardTelemetry: the pre-resolved per-shard series count scatters and
// publish per-shard sizes under the documented names.
func TestPerShardTelemetry(t *testing.T) {
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
	for s := 0; s < 2; s++ {
		if got := reg.Counter(`tasti_shard_propagate_total{shard="` + string(rune('0'+s)) + `"}`).Value(); got != 1 {
			t.Errorf("shard %d propagate counter = %d, want 1", s, got)
		}
		if got := reg.Gauge(`tasti_shard_records{shard="` + string(rune('0'+s)) + `"}`).Value(); got != 100 {
			t.Errorf("shard %d records gauge = %v, want 100", s, got)
		}
		if got := reg.Gauge(`tasti_shard_reps{shard="` + string(rune('0'+s)) + `"}`).Value(); got != 20 {
			t.Errorf("shard %d reps gauge = %v, want 20", s, got)
		}
	}
	if got := reg.Counter(`tasti_propagate_total{kind="weighted"}`).Value(); got != 1 {
		t.Errorf("gather-level propagate counter = %d, want 1", got)
	}
}
