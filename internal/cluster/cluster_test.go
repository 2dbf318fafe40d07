package cluster

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/vecmath"
	"repro/internal/xrand"
)

func randomEmbeddings(r *rand.Rand, n, d int) vecmath.Matrix {
	out := vecmath.NewMatrix(n, d)
	for i := 0; i < n; i++ {
		v := out.Row(i)
		for j := range v {
			v[j] = r.NormFloat64()
		}
	}
	return out
}

// eachPlane runs fn once per scan plane ∈ {float, quant} × worker count ∈
// {1, 2, 4, 7}: the float plane is the zero QuantMatrix, the quant plane is
// m's trained code plane. Both one-to-many sweeps take the plane as an
// argument, so one reference test covers both through the same entry point.
// at names the combination for failure messages.
func eachPlane(t *testing.T, m vecmath.Matrix, fn func(at string, quant vecmath.QuantMatrix, p int)) {
	t.Helper()
	q, err := vecmath.QuantizeMatrix(m, vecmath.TrainQuantParams(m))
	if err != nil {
		t.Fatalf("QuantizeMatrix: %v", err)
	}
	for _, plane := range []struct {
		name  string
		quant vecmath.QuantMatrix
	}{{"float", vecmath.QuantMatrix{}}, {"quant", q}} {
		for _, p := range testWorkers {
			fn(fmt.Sprintf("%s plane, %d workers", plane.name, p), plane.quant, p)
		}
	}
}

var testWorkers = []int{1, 2, 4, 7}

// checkStats pins the accounting side of the plane argument: a float scan
// counts nothing, a quantized one counts candidates and never reranks more
// than it examined.
func checkStats(t *testing.T, at string, quant vecmath.QuantMatrix, st QuantScanStats) {
	t.Helper()
	if !quant.Enabled() && st != (QuantScanStats{}) {
		t.Fatalf("%s: float scan counted %+v", at, st)
	}
	if quant.Enabled() && (st.Candidates == 0 || st.Reranked > st.Candidates) {
		t.Fatalf("%s: implausible quant stats %+v", at, st)
	}
}

// coverRadius is the maximum over records of the distance to the nearest of
// reps — the clustering-density quantity the paper's Theorems 1 and 2 bound.
func coverRadius(emb vecmath.Matrix, reps []int) float64 {
	return BuildTablePar(emb, reps, 1, 0).MaxNearestDistance()
}

func TestFPFBasics(t *testing.T) {
	r := xrand.New(1)
	emb := randomEmbeddings(r, 100, 4)
	reps := FPFPar(emb, 10, 0, 0)
	if len(reps) != 10 {
		t.Fatalf("got %d reps", len(reps))
	}
	seen := map[int]bool{}
	for _, rep := range reps {
		if rep < 0 || rep >= 100 || seen[rep] {
			t.Fatalf("bad rep %d", rep)
		}
		seen[rep] = true
	}
	if reps[0] != 0 {
		t.Errorf("first rep should be the start, got %d", reps[0])
	}
	if FPFPar(emb, 0, 0, 0) != nil {
		t.Error("k=0 should give nil")
	}
	if got := FPFPar(emb, 1000, 0, 0); len(got) != 100 {
		t.Errorf("k>n should clamp, got %d", len(got))
	}
}

func TestFPFStopsOnDuplicates(t *testing.T) {
	emb := vecmath.FromRows([][]float64{{1, 1}, {1, 1}, {1, 1}, {2, 2}})
	reps := FPFPar(emb, 4, 0, 0)
	// Only two distinct points exist, so FPF stops after covering both.
	if len(reps) != 2 {
		t.Errorf("got %d reps for 2 distinct points: %v", len(reps), reps)
	}
}

func TestFPFPanicsOnBadStart(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	FPFPar(randomEmbeddings(xrand.New(1), 5, 2), 2, 9, 0)
}

// TestFPFTwoApproximation checks Gonzalez's guarantee: FPF's max point-to-
// nearest-representative distance is within 2x of optimal. We verify the
// weaker, directly checkable property that FPF beats random selection on
// covering radius for clustered data, plus the formal invariant that the
// covering radius never exceeds the distance between the two closest
// selected representatives (which the 2-approximation proof relies on).
func TestFPFTwoApproximation(t *testing.T) {
	r := xrand.New(7)
	// Three well-separated Gaussian blobs.
	var rows [][]float64
	centers := [][]float64{{0, 0}, {10, 0}, {0, 10}}
	for _, c := range centers {
		for i := 0; i < 60; i++ {
			rows = append(rows, []float64{c[0] + r.NormFloat64()*0.3, c[1] + r.NormFloat64()*0.3})
		}
	}
	emb := vecmath.FromRows(rows)
	reps := FPFPar(emb, 3, 0, 0)
	radius := coverRadius(emb, reps)
	if radius > 3 {
		t.Errorf("FPF failed to place one rep per blob: radius %v", radius)
	}
	// Invariant: covering radius <= min pairwise rep distance.
	minPair := math.Inf(1)
	for i := 0; i < len(reps); i++ {
		for j := i + 1; j < len(reps); j++ {
			d := vecmath.L2(emb.Row(reps[i]), emb.Row(reps[j]))
			if d < minPair {
				minPair = d
			}
		}
	}
	if radius > minPair {
		t.Errorf("covering radius %v exceeds min rep separation %v", radius, minPair)
	}
}

func TestFPFMixed(t *testing.T) {
	r := xrand.New(3)
	emb := randomEmbeddings(r, 200, 3)
	mixed := func(k int, frac float64) []int {
		sel := SelectPar(r, emb, vecmath.QuantMatrix{}, k, frac, 0, 0)
		if sel.Table() != nil {
			t.Error("a selection without lists returned a table")
		}
		return sel.Reps
	}
	reps := mixed(40, 0.25)
	if len(reps) != 40 {
		t.Fatalf("got %d reps", len(reps))
	}
	seen := map[int]bool{}
	for _, rep := range reps {
		if seen[rep] {
			t.Fatalf("duplicate rep %d", rep)
		}
		seen[rep] = true
	}
	if got := mixed(0, 0.5); got != nil {
		t.Error("k=0 should give nil")
	}
	// All-random and all-FPF extremes work.
	if got := mixed(10, 1.0); len(got) != 10 {
		t.Errorf("randomFrac=1 gave %d", len(got))
	}
	if got := mixed(10, 0.0); len(got) != 10 {
		t.Errorf("randomFrac=0 gave %d", len(got))
	}
}

func TestFPFMixedPanicsOnBadFrac(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	SelectPar(xrand.New(1), randomEmbeddings(xrand.New(1), 10, 2), vecmath.QuantMatrix{}, 5, 1.5, 3, 0)
}

func TestRandomReps(t *testing.T) {
	r := xrand.New(5)
	reps := RandomReps(r, 50, 10)
	if len(reps) != 10 {
		t.Fatalf("got %d", len(reps))
	}
	seen := map[int]bool{}
	for _, rep := range reps {
		if rep < 0 || rep >= 50 || seen[rep] {
			t.Fatalf("bad rep %d", rep)
		}
		seen[rep] = true
	}
	if got := RandomReps(r, 5, 10); len(got) != 5 {
		t.Errorf("k>n should clamp: %d", len(got))
	}
}

// TestFPFBeatsRandomCoverage: on heavy-tailed data, FPF's covering radius
// should beat random selection's — the property the paper's rare-event
// results rest on.
func TestFPFBeatsRandomCoverage(t *testing.T) {
	r := xrand.New(11)
	var emb vecmath.Matrix
	for i := 0; i < 300; i++ {
		emb.AppendRow([]float64{r.NormFloat64() * 0.1, r.NormFloat64() * 0.1})
	}
	for i := 0; i < 5; i++ { // rare outliers
		emb.AppendRow([]float64{10 + r.NormFloat64(), 10 + r.NormFloat64()})
	}
	fpf := FPFPar(emb, 10, 0, 0)
	random := RandomReps(xrand.New(12), emb.Rows(), 10)
	if coverRadius(emb, fpf) >= coverRadius(emb, random) {
		t.Errorf("FPF radius %v not better than random %v",
			coverRadius(emb, fpf), coverRadius(emb, random))
	}
}

// TestBuildTableMatchesBruteForce checks the one table body against a scalar
// brute-force nearest-representative search at every worker count.
func TestBuildTableMatchesBruteForce(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%40 + 5
		k := int(kRaw)%4 + 1
		emb := randomEmbeddings(r, n, 3)
		numReps := n/2 + 1
		reps := RandomReps(r, n, numReps)
		for _, p := range testWorkers {
			at := fmt.Sprintf("%d workers", p)
			table := BuildTablePar(emb, reps, k, p)
			if err := table.Validate(); err != nil {
				t.Errorf("%s: %v", at, err)
			}
			// Brute force nearest rep for a few records.
			for i := 0; i < n; i += 7 {
				bestD := math.Inf(1)
				for _, rep := range reps {
					bestD = math.Min(bestD, vecmath.L2(emb.Row(i), emb.Row(rep)))
				}
				if got := table.Nearest(i); math.Abs(got.Dist-bestD) > 1e-9 {
					t.Errorf("%s: record %d: nearest %v, brute force %v", at, i, got.Dist, bestD)
				}
			}
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestBuildTablePanics(t *testing.T) {
	emb := randomEmbeddings(xrand.New(1), 10, 2)
	for _, fn := range []func(){
		func() { BuildTablePar(emb, []int{0}, 0, 0) },
		func() { BuildTablePar(emb, nil, 1, 0) },
		func() { BuildTablePar(emb, []int{50}, 1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("no panic")
				}
			}()
			fn()
		}()
	}
}

// TestAddRepresentativeMatchesRebuild checks incremental insertion against a
// rebuild over the extended representative set, on either plane at every
// worker count.
func TestAddRepresentativeMatchesRebuild(t *testing.T) {
	r := xrand.New(13)
	emb := randomEmbeddings(r, 120, 4)
	reps := RandomReps(r, 120, 20)
	extra := []int{100, 101, 102}
	full := BuildTablePar(emb, append(append([]int{}, reps...), extra...), 3, 0)

	eachPlane(t, emb, func(at string, quant vecmath.QuantMatrix, p int) {
		incremental := BuildTablePar(emb, reps, 3, p)
		for _, rep := range extra {
			st := incremental.AddRepresentativeEmb(emb, quant, rep, emb.Row(rep), p)
			checkStats(t, at, quant, st)
		}
		if err := incremental.Validate(); err != nil {
			t.Fatalf("%s: %v", at, err)
		}
		for i := 0; i < emb.Rows(); i++ {
			for j := range full.Neighbors[i] {
				a, b := incremental.Neighbors[i][j], full.Neighbors[i][j]
				if math.Abs(a.Dist-b.Dist) > 1e-9 {
					t.Fatalf("%s: record %d neighbor %d: incremental %v vs rebuild %v", at, i, j, a, b)
				}
			}
		}
	})
}

func TestAddRepresentativeIdempotent(t *testing.T) {
	r := xrand.New(17)
	emb := randomEmbeddings(r, 50, 2)
	table := BuildTablePar(emb, []int{0, 1}, 2, 0)
	table.AddRepresentativePar(emb, 0, 0)
	if len(table.Reps) != 2 {
		t.Errorf("re-adding existing rep changed reps: %v", table.Reps)
	}
}

func TestMaxNearestDistanceShrinksWithReps(t *testing.T) {
	r := xrand.New(19)
	emb := randomEmbeddings(r, 200, 3)
	small := BuildTablePar(emb, FPFPar(emb, 5, 0, 0), 1, 0)
	large := BuildTablePar(emb, FPFPar(emb, 50, 0, 0), 1, 0)
	if large.MaxNearestDistance() > small.MaxNearestDistance() {
		t.Errorf("more reps increased covering radius: %v > %v",
			large.MaxNearestDistance(), small.MaxNearestDistance())
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	r := xrand.New(23)
	emb := randomEmbeddings(r, 30, 2)
	table := BuildTablePar(emb, []int{0, 1, 2}, 2, 0)
	table.Neighbors[4][0], table.Neighbors[4][1] = table.Neighbors[4][1], table.Neighbors[4][0]
	if table.Neighbors[4][0].Dist != table.Neighbors[4][1].Dist {
		if err := table.Validate(); err == nil {
			t.Error("unsorted neighbors not caught")
		}
	}
	table2 := BuildTablePar(emb, []int{0, 1, 2}, 2, 0)
	table2.Neighbors[3][0].Rep = 29
	if err := table2.Validate(); err == nil {
		t.Error("non-representative neighbor not caught")
	}
	table3 := BuildTablePar(emb, []int{0, 1, 2}, 2, 0)
	table3.Reps = append(table3.Reps, 0)
	if err := table3.Validate(); err == nil {
		t.Error("duplicate rep not caught")
	}
}

// sequentialFPF is the textbook single-threaded reference the parallel FPF
// must match exactly. It uses the scalar SquaredL2 kernel one pair at a
// time, so it also pins the batch path's bitwise equivalence to the scalar
// path.
func sequentialFPF(embeddings vecmath.Matrix, k, start int) []int {
	n := embeddings.Rows()
	if k > n {
		k = n
	}
	reps := make([]int, 0, k)
	minDist := make([]float64, n)
	for i := range minDist {
		minDist[i] = math.Inf(1)
	}
	cur := start
	for len(reps) < k {
		reps = append(reps, cur)
		far, farDist := -1, -1.0
		for i := 0; i < n; i++ {
			d := vecmath.SquaredL2(embeddings.Row(i), embeddings.Row(cur))
			if d < minDist[i] {
				minDist[i] = d
			}
			if minDist[i] > farDist {
				far, farDist = i, minDist[i]
			}
		}
		if farDist == 0 {
			break
		}
		cur = far
	}
	return reps
}

// TestFPFMatchesSequential checks the one FPF sweep against the sequential
// reference through the mixed selector (randomFrac 0 is pure FPF from the
// start record r draws), with and without lists, on either plane at every
// worker count.
func TestFPFMatchesSequential(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%80 + 2
		k := int(kRaw)%n + 1
		emb := randomEmbeddings(r, n, 3)
		start := rand.New(rand.NewSource(seed)).Intn(n)
		want := sequentialFPF(emb, k, start)
		eachPlane(t, emb, func(at string, quant vecmath.QuantMatrix, p int) {
			for _, tableK := range []int{0, 3} {
				sel := SelectPar(rand.New(rand.NewSource(seed)), emb, quant, k, 0, tableK, p)
				checkStats(t, at, quant, sel.Stats)
				if !slices.Equal(sel.Reps, want) {
					t.Errorf("%s, tableK %d: SelectPar = %v, sequential %v", at, tableK, sel.Reps, want)
				}
			}
			if got := FPFPar(emb, k, start, p); !slices.Equal(got, want) {
				t.Errorf("%s: FPFPar = %v, sequential %v", at, got, want)
			}
		})
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestWorkerCountInvariance pins the parallel subsystem's contract at the
// cluster layer: FPF selections, min-k tables, and incremental insertions
// are bitwise identical at every parallelism level.
func TestWorkerCountInvariance(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	emb := randomEmbeddings(r, 400, 6)

	wantReps := FPFPar(emb, 37, 0, 1)
	wantTable := BuildTablePar(emb, wantReps, 4, 1)
	wantTable.AddRepresentativePar(emb, 399, 1)

	for _, p := range []int{2, 3, 8} {
		reps := FPFPar(emb, 37, 0, p)
		if len(reps) != len(wantReps) {
			t.Fatalf("p=%d: %d reps, want %d", p, len(reps), len(wantReps))
		}
		for i := range reps {
			if reps[i] != wantReps[i] {
				t.Fatalf("p=%d: rep[%d] = %d, want %d", p, i, reps[i], wantReps[i])
			}
		}
		table := BuildTablePar(emb, reps, 4, p)
		table.AddRepresentativePar(emb, 399, p)
		for i := range wantTable.Neighbors {
			for j, nb := range wantTable.Neighbors[i] {
				if table.Neighbors[i][j] != nb {
					t.Fatalf("p=%d: record %d neighbor %d = %+v, want %+v",
						p, i, j, table.Neighbors[i][j], nb)
				}
			}
		}
	}
}

// TestFPFMixedWorkerCountInvariance checks that SelectPar's random mix-in
// consumes the RNG identically at every parallelism level.
func TestFPFMixedWorkerCountInvariance(t *testing.T) {
	emb := randomEmbeddings(rand.New(rand.NewSource(7)), 300, 4)
	want := SelectPar(rand.New(rand.NewSource(11)), emb, vecmath.QuantMatrix{}, 50, 0.2, 4, 1).Reps
	for _, p := range []int{2, 5} {
		got := SelectPar(rand.New(rand.NewSource(11)), emb, vecmath.QuantMatrix{}, 50, 0.2, 4, p).Reps
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("p=%d: rep[%d] = %d, want %d", p, i, got[i], want[i])
			}
		}
	}
}

// selectReference is the selection SelectPar must reproduce, built from the
// sequential FPF and the random fill drawing from the same rand stream.
func selectReference(r *rand.Rand, emb vecmath.Matrix, k int, randomFrac float64) []int {
	n := emb.Rows()
	k = min(k, n)
	if k <= 0 {
		return nil
	}
	numFPF := k - int(math.Round(randomFrac*float64(k)))
	var reps []int
	if numFPF > 0 {
		reps = sequentialFPF(emb, numFPF, r.Intn(n))
	}
	for len(reps) < k {
		if id := r.Intn(n); !slices.Contains(reps, id) {
			reps = append(reps, id)
		}
	}
	return reps
}

// TestSelectTableMatchesBuildTable is the fused sweep's contract: from the
// same rand stream it selects the reference representatives, and its table
// is bitwise BuildTablePar over them, on either plane at every worker count.
// The corpora cover all-FPF, mixed and all-random selections, more table
// slots than representatives, more representatives than records, duplicate
// rows that stop FPF early (farDist == 0), and tied distances (rows on a
// small integer grid).
func TestSelectTableMatchesBuildTable(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, tableKRaw uint8, grid bool) bool {
		r := rand.New(rand.NewSource(seed))
		n := int(nRaw)%50 + 2
		k := int(kRaw)%(n+6) + 1           // up to n+6: k > n clamps
		tableK := int(tableKRaw)%(k+3) + 1 // up to k+3: tableK > reps
		emb := randomEmbeddings(r, n, 3)
		if grid {
			for i := 0; i < n; i++ {
				for j, v := range emb.Row(i) {
					emb.Row(i)[j] = math.Round(v)
				}
			}
		}
		for _, frac := range []float64{0, 0.1, 1} {
			reps := selectReference(rand.New(rand.NewSource(seed)), emb, k, frac)
			want := BuildTablePar(emb, reps, min(tableK, len(reps)), 1)
			eachPlane(t, emb, func(at string, quant vecmath.QuantMatrix, p int) {
				at = fmt.Sprintf("%s, n %d k %d tableK %d frac %v grid %v", at, n, k, tableK, frac, grid)
				sel := SelectPar(rand.New(rand.NewSource(seed)), emb, quant, k, frac, tableK, p)
				if frac < 1 { // an all-random selection scans no code plane
					checkStats(t, at, quant, sel.Stats)
				}
				if !slices.Equal(sel.Reps, reps) {
					t.Fatalf("%s: reps %v, reference %v", at, sel.Reps, reps)
				}
				sameTable(t, sel.Table(), want)
				if sel.Table() != nil {
					t.Fatalf("%s: a second Table call returned a table", at)
				}
			})
		}
		return !t.Failed()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}
