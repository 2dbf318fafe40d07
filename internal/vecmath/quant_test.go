package vecmath

import (
	"math"
	"math/rand"
	"testing"
)

func randMatrix(t *testing.T, r *rand.Rand, rows, dim int, lo, hi float64) Matrix {
	t.Helper()
	data := make([]float64, rows*dim)
	for i := range data {
		data[i] = lo + r.Float64()*(hi-lo)
	}
	m, err := MatrixFromFlat(data, rows, dim)
	if err != nil {
		t.Fatalf("MatrixFromFlat: %v", err)
	}
	return m
}

func mustQuantize(t *testing.T, m Matrix) QuantMatrix {
	t.Helper()
	q, err := QuantizeMatrix(m, TrainQuantParams(m))
	if err != nil {
		t.Fatalf("QuantizeMatrix: %v", err)
	}
	return q
}

// TestCodeDistBatchMatchesScalar pins the dispatched batch kernel to the
// scalar reference on every row, across dims that exercise full blocks,
// tails, and sub-block rows. On amd64 with AVX2 this is the generic==AVX2
// equivalence check; elsewhere it checks the generic batch path.
func TestCodeDistBatchMatchesScalar(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for _, dim := range []int{1, 3, 15, 16, 17, 31, 32, 48, 63, 100} {
		const rows = 37
		codes := make([]uint8, rows*dim)
		q := make([]uint8, dim)
		for i := range codes {
			codes[i] = uint8(r.Intn(256))
		}
		for i := range q {
			q[i] = uint8(r.Intn(256))
		}
		qm, err := QuantMatrixFromParts(codes, rows, dim,
			QuantParams{Scale: make([]float64, dim), Offset: make([]float64, dim)}, 0, 0)
		if err != nil {
			t.Fatalf("dim %d: %v", dim, err)
		}
		dst := make([]int64, rows)
		CodeDistBatch(q, qm, dst)
		for i := 0; i < rows; i++ {
			if want := SqCodeDist(q, qm.Row(i)); dst[i] != want {
				t.Fatalf("dim %d row %d: batch %d, scalar %d", dim, i, dst[i], want)
			}
		}
	}
}

// TestCodeDistExtremes drives the kernel with saturated codes so the i16
// differences and i32 lane accumulators see their worst case.
func TestCodeDistExtremes(t *testing.T) {
	for _, dim := range []int{16, 64, 1000} {
		a := make([]uint8, dim)
		b := make([]uint8, dim)
		for i := range a {
			a[i] = 255
		}
		qm, err := QuantMatrixFromParts(b, 1, dim,
			QuantParams{Scale: make([]float64, dim), Offset: make([]float64, dim)}, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		dst := make([]int64, 1)
		CodeDistBatch(a, qm, dst)
		if want := int64(dim) * 255 * 255; dst[0] != want {
			t.Fatalf("dim %d: got %d, want %d", dim, dst[0], want)
		}
	}
}

// TestQuantLowerBound is the conservativeness property the skip logic rests
// on: for random planes and random float queries, LowerBound of the code
// distance never exceeds the true Euclidean distance.
func TestQuantLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		rows := 5 + r.Intn(60)
		dim := 1 + r.Intn(24)
		m := randMatrix(t, r, rows, dim, -3, 5)
		q := mustQuantize(t, m)
		qrow := make([]uint8, dim)
		dst := make([]int64, rows)
		for qi := 0; qi < 5; qi++ {
			query := make([]float64, dim)
			for d := range query {
				// Queries sometimes land outside the trained range.
				query[d] = -6 + r.Float64()*14
			}
			qErr := QuantizeRowInto(qrow, query, q.Params())
			CodeDistBatch(qrow, q, dst)
			for i := 0; i < rows; i++ {
				lb := q.LowerBound(dst[i], qErr)
				d := math.Sqrt(SquaredL2(query, m.Row(i)))
				if lb > d {
					t.Fatalf("trial %d row %d: lower bound %v exceeds true distance %v", trial, i, lb, d)
				}
			}
		}
	}
}

// TestQuantAppendWidensBound appends rows outside the trained range and
// checks the decode-error bound grows to keep LowerBound valid.
func TestQuantAppendWidensBound(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	m := randMatrix(t, r, 20, 6, 0, 1)
	q := mustQuantize(t, m)
	before := q.MaxErr()
	out := []float64{9, -4, 0.5, 12, 0.1, -7} // far outside [0,1]
	m.AppendRow(out)
	q.AppendRow(out)
	if q.Rows() != m.Rows() {
		t.Fatalf("rows: quant %d, float %d", q.Rows(), m.Rows())
	}
	if q.MaxErr() <= before {
		t.Fatalf("out-of-range append did not widen decode-error bound (%v -> %v)", before, q.MaxErr())
	}
	// Bound still conservative against the appended row.
	qrow := make([]uint8, 6)
	dst := make([]int64, q.Rows())
	query := []float64{0.5, 0.5, 0.5, 0.5, 0.5, 0.5}
	qErr := QuantizeRowInto(qrow, query, q.Params())
	CodeDistBatch(qrow, q, dst)
	for i := 0; i < q.Rows(); i++ {
		lb := q.LowerBound(dst[i], qErr)
		d := math.Sqrt(SquaredL2(query, m.Row(i)))
		if lb > d {
			t.Fatalf("row %d: lower bound %v exceeds true distance %v after append", i, lb, d)
		}
	}
}

// TestQuantRowRangeSharesCodes checks views are zero-copy and the final
// view keeps append capacity semantics like Matrix.RowRange.
func TestQuantRowRangeSharesCodes(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	m := randMatrix(t, r, 10, 4, -1, 1)
	q := mustQuantize(t, m)
	v := q.RowRange(3, 7)
	if v.Rows() != 4 || v.Dim() != 4 {
		t.Fatalf("view shape %dx%d", v.Rows(), v.Dim())
	}
	if &v.Codes()[0] != &q.Codes()[3*4] {
		t.Fatal("view does not share backing codes")
	}
	for i := 0; i < 4; i++ {
		a, b := v.Row(i), q.Row(3+i)
		for d := range a {
			if a[d] != b[d] {
				t.Fatalf("view row %d differs from parent row %d", i, 3+i)
			}
		}
	}
	last := q.RowRange(7, 10)
	last.AppendRow([]float64{0.1, 0.2, 0.3, 0.4})
	if last.Rows() != 4 {
		t.Fatalf("append through final view: rows %d", last.Rows())
	}
}

// TestQuantClone checks the deep copy is independent of the source.
func TestQuantClone(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	m := randMatrix(t, r, 8, 3, -2, 2)
	q := mustQuantize(t, m)
	c := q.Clone()
	c.Codes()[0] ^= 0xFF
	c.Params().Scale[0] = 42
	if q.Codes()[0] == c.Codes()[0] {
		t.Fatal("clone shares codes")
	}
	if q.Params().Scale[0] == 42 {
		t.Fatal("clone shares params")
	}
}

// TestQuantMatrixFromPartsRejects covers the validation the snapshot
// decoder relies on for corrupted quant frames.
func TestQuantMatrixFromPartsRejects(t *testing.T) {
	good := QuantParams{Scale: []float64{1, 1}, Offset: []float64{0, 0}}
	cases := []struct {
		name   string
		codes  []uint8
		rows   int
		dim    int
		params QuantParams
		maxErr float64
		fitErr float64
	}{
		{"negative rows", nil, -1, 2, good, 0, 0},
		{"negative dim", nil, 1, -2, good, 0, 0},
		{"short codes", []uint8{1, 2}, 2, 2, good, 0, 0},
		{"long codes", []uint8{1, 2, 3, 4, 5}, 2, 2, good, 0, 0},
		{"scale len", []uint8{1, 2}, 1, 2, QuantParams{Scale: []float64{1}, Offset: []float64{0, 0}}, 0, 0},
		{"offset len", []uint8{1, 2}, 1, 2, QuantParams{Scale: []float64{1, 1}, Offset: []float64{0}}, 0, 0},
		{"negative scale", []uint8{1, 2}, 1, 2, QuantParams{Scale: []float64{-1, 1}, Offset: []float64{0, 0}}, 0, 0},
		{"nan scale", []uint8{1, 2}, 1, 2, QuantParams{Scale: []float64{math.NaN(), 1}, Offset: []float64{0, 0}}, 0, 0},
		{"inf offset", []uint8{1, 2}, 1, 2, QuantParams{Scale: []float64{1, 1}, Offset: []float64{math.Inf(1), 0}}, 0, 0},
		{"negative maxerr", []uint8{1, 2}, 1, 2, good, -1, 0},
		{"nan maxerr", []uint8{1, 2}, 1, 2, good, math.NaN(), 0},
		{"negative fiterr", []uint8{1, 2}, 1, 2, good, 0.5, -1},
		{"fiterr past maxerr", []uint8{1, 2}, 1, 2, good, 0.5, 0.75},
		{"nan fiterr", []uint8{1, 2}, 1, 2, good, 0.5, math.NaN()},
	}
	for _, tc := range cases {
		if _, err := QuantMatrixFromParts(tc.codes, tc.rows, tc.dim, tc.params, tc.maxErr, tc.fitErr); err == nil {
			t.Errorf("%s: no error", tc.name)
		}
	}
	q, err := QuantMatrixFromParts([]uint8{1, 2, 3, 4}, 2, 2, good, 0.5, 0.25)
	if err != nil {
		t.Fatalf("valid parts rejected: %v", err)
	}
	if q.FitErr() != 0.25 || !q.Widened() {
		t.Errorf("fit bound %v (widened %t), want 0.25 under a 0.5 bound", q.FitErr(), q.Widened())
	}
}

// TestQuantZeroScaleAdmitsAll: a constant corpus trains a zero step; the
// bound must degrade to zero (admit everything) rather than mislead.
func TestQuantZeroScaleAdmitsAll(t *testing.T) {
	data := make([]float64, 12)
	for i := range data {
		data[i] = 2.5
	}
	m, err := MatrixFromFlat(data, 4, 3)
	if err != nil {
		t.Fatal(err)
	}
	q := mustQuantize(t, m)
	if lb := q.LowerBound(1<<20, 0); lb != 0 {
		t.Fatalf("zero-scale plane produced nonzero lower bound %v", lb)
	}
}

// TestQuantRoundTripDeterminism: quantizing the same rows twice (build-time
// matrix path vs row-at-a-time append path) must yield identical codes —
// the property the shard append path relies on.
func TestQuantRoundTripDeterminism(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	m := randMatrix(t, r, 30, 7, -4, 4)
	q := mustQuantize(t, m)
	var inc QuantMatrix
	incPtr, err := QuantMatrixFromParts(nil, 0, 7, q.Params(), 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	inc = incPtr
	for i := 0; i < m.Rows(); i++ {
		inc.AppendRow(m.Row(i))
	}
	if inc.Rows() != q.Rows() {
		t.Fatalf("rows %d vs %d", inc.Rows(), q.Rows())
	}
	for i := range q.Codes() {
		if inc.Codes()[i] != q.Codes()[i] {
			t.Fatalf("code %d differs: %d vs %d", i, inc.Codes()[i], q.Codes()[i])
		}
	}
	if inc.MaxErr() != q.MaxErr() {
		t.Fatalf("maxErr %v vs %v", inc.MaxErr(), q.MaxErr())
	}
}

func BenchmarkCodeDistBatch(b *testing.B) {
	const rows, dim = 4096, 128
	r := rand.New(rand.NewSource(1))
	codes := make([]uint8, rows*dim)
	for i := range codes {
		codes[i] = uint8(r.Intn(256))
	}
	qm, err := QuantMatrixFromParts(codes, rows, dim,
		QuantParams{Scale: make([]float64, dim), Offset: make([]float64, dim)}, 0, 0)
	if err != nil {
		b.Fatal(err)
	}
	q := make([]uint8, dim)
	dst := make([]int64, rows)
	b.SetBytes(rows * dim)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		CodeDistBatch(q, qm, dst)
	}
}
