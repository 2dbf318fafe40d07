package ann

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func testVectors(n, d int, seed int64) vecmath.Matrix {
	r := xrand.New(seed)
	out := vecmath.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		v := out.Row(i)
		for j := range v {
			v[j] = r.NormFloat64()
		}
	}
	return out
}

func bruteForce(vectors vecmath.Matrix, q []float64, k int) []vecmath.IndexedValue {
	dists := make([]float64, vectors.Rows())
	for i := 0; i < vectors.Rows(); i++ {
		dists[i] = vecmath.SquaredL2(q, vectors.Row(i))
	}
	out := vecmath.SmallestK(dists, k)
	for i := range out {
		out[i].Value = math.Sqrt(out[i].Value)
	}
	return out
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(DefaultConfig(0, 1), vecmath.Matrix{}); err == nil {
		t.Error("empty vectors should error")
	}
	vecs := testVectors(10, 4, 1)
	if _, err := Build(Config{Cells: 0, Iterations: 5}, vecs); err == nil {
		t.Error("zero cells should error")
	}
	// More cells than vectors clamps.
	ix, err := Build(Config{Cells: 100, Iterations: 3, Seed: 1}, vecs)
	if err != nil {
		t.Fatal(err)
	}
	if ix.NumCells() > 10 {
		t.Errorf("cells = %d", ix.NumCells())
	}
}

func TestSearchFullProbeIsExact(t *testing.T) {
	vecs := testVectors(300, 8, 2)
	ix, err := Build(DefaultConfig(vecs.Rows(), 2), vecs)
	if err != nil {
		t.Fatal(err)
	}
	q := testVectors(1, 8, 3).Row(0)
	got := ix.Search(q, 5, ix.NumCells())
	want := bruteForce(vecs, q, 5)
	for i := range want {
		if got[i].Index != want[i].Index || math.Abs(got[i].Value-want[i].Value) > 1e-9 {
			t.Fatalf("full-probe search differs at %d: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestSearchRecall(t *testing.T) {
	vecs := testVectors(2000, 16, 4)
	ix, err := Build(DefaultConfig(vecs.Rows(), 4), vecs)
	if err != nil {
		t.Fatal(err)
	}
	queries := testVectors(50, 16, 5)
	hit, total := 0, 0
	for qi := 0; qi < queries.Rows(); qi++ {
		q := queries.Row(qi)
		want := bruteForce(vecs, q, 10)
		wantSet := map[int]bool{}
		for _, w := range want {
			wantSet[w.Index] = true
		}
		for _, g := range ix.Search(q, 10, 8) {
			if wantSet[g.Index] {
				hit++
			}
		}
		total += 10
	}
	recall := float64(hit) / float64(total)
	if recall < 0.6 {
		t.Errorf("recall@10 with nprobe=8: %v", recall)
	}
	t.Logf("recall@10 nprobe=8: %.3f", recall)
}

func TestSearchEdgeCases(t *testing.T) {
	vecs := testVectors(20, 4, 6)
	ix, err := Build(DefaultConfig(vecs.Rows(), 7), vecs)
	if err != nil {
		t.Fatal(err)
	}
	q := vecs.Row(3)
	if got := ix.Search(q, 0, 1); got != nil {
		t.Error("k=0 should give nil")
	}
	got := ix.Search(q, 100, ix.NumCells())
	if len(got) != 20 {
		t.Errorf("k>n should clamp: %d", len(got))
	}
	if got[0].Index != 3 || got[0].Value != 0 {
		t.Errorf("query equal to a vector should find it first: %v", got[0])
	}
	// nprobe out of range is clamped, not an error.
	if got := ix.Search(q, 3, 0); len(got) == 0 {
		t.Error("nprobe=0 should still probe one cell")
	}
}

func TestBuildTableApproxMatchesExactAtFullProbe(t *testing.T) {
	emb := testVectors(500, 8, 8)
	reps := cluster.FPFPar(emb, 60, 0, 0)
	cfg := Config{Cells: 8, Iterations: 5, Seed: 9}
	approx, err := BuildTableApprox(emb, reps, 3, 8, cfg)
	if err != nil {
		t.Fatal(err)
	}
	exact := cluster.BuildTablePar(emb, reps, 3, 0)
	for i := 0; i < emb.Rows(); i++ {
		for j := range exact.Neighbors[i] {
			a, e := approx.Neighbors[i][j], exact.Neighbors[i][j]
			if a.Rep != e.Rep || math.Abs(a.Dist-e.Dist) > 1e-9 {
				t.Fatalf("record %d neighbor %d: approx %v vs exact %v", i, j, a, e)
			}
		}
	}
}

func TestBuildTableApproxLowProbeCloseToExact(t *testing.T) {
	emb := testVectors(800, 16, 10)
	reps := cluster.FPFPar(emb, 100, 0, 0)
	approx, err := BuildTableApprox(emb, reps, 1, 3, Config{Cells: 10, Iterations: 5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	exact := cluster.BuildTablePar(emb, reps, 1, 0)
	agree := 0
	for i := 0; i < emb.Rows(); i++ {
		if approx.Neighbors[i][0].Rep == exact.Neighbors[i][0].Rep {
			agree++
		}
	}
	frac := float64(agree) / float64(emb.Rows())
	if frac < 0.7 {
		t.Errorf("nearest-rep agreement at nprobe=3: %v", frac)
	}
	t.Logf("nearest-rep agreement at nprobe=3: %.3f", frac)
}

func TestBuildTableApproxValidation(t *testing.T) {
	emb := testVectors(50, 4, 12)
	if _, err := BuildTableApprox(emb, []int{0}, 0, 1, DefaultConfig(1, 1)); err == nil {
		t.Error("k=0 should error")
	}
	if _, err := BuildTableApprox(emb, []int{99}, 1, 1, DefaultConfig(1, 1)); err == nil {
		t.Error("out-of-range rep should error")
	}
}
