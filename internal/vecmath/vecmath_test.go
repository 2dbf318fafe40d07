package vecmath

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/xrand"
)

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestDot(t *testing.T) {
	if got := Dot([]float64{1, 2, 3}, []float64{4, 5, 6}); got != 32 {
		t.Errorf("Dot = %v, want 32", got)
	}
}

func TestDotPanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on length mismatch")
		}
	}()
	Dot([]float64{1}, []float64{1, 2})
}

func TestL2AndSquaredL2(t *testing.T) {
	a := []float64{0, 3}
	b := []float64{4, 0}
	if got := SquaredL2(a, b); got != 25 {
		t.Errorf("SquaredL2 = %v", got)
	}
	if got := L2(a, b); got != 5 {
		t.Errorf("L2 = %v", got)
	}
}

func TestL2TriangleInequality(t *testing.T) {
	f := func(a, b, c [4]float64) bool {
		ab := L2(a[:], b[:])
		bc := L2(b[:], c[:])
		ac := L2(a[:], c[:])
		return ac <= ab+bc+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestAXPY(t *testing.T) {
	dst := []float64{1, 1}
	AXPY(dst, 2, []float64{3, 4})
	if dst[0] != 7 || dst[1] != 9 {
		t.Errorf("AXPY = %v", dst)
	}
}

// TestAxpyUnfused pins the rounding itself: an input where a fused
// multiply-add and the two-rounding sequence disagree must come out as the
// two-rounding value on whichever path AXPY dispatches to.
func TestAxpyUnfused(t *testing.T) {
	x := 1 + 0x1p-52
	want := float64(x*x) + (-1 - 0x1p-51) // product rounded, then the add
	if fused := math.FMA(x, x, -1-0x1p-51); fused == want {
		t.Fatal("test input does not separate fused from unfused")
	}
	for n := 1; n <= 21; n++ {
		dst := make([]float64, n)
		a := make([]float64, n)
		for i := range a {
			a[i], dst[i] = x, -1-0x1p-51
		}
		AXPY(dst, x, a)
		for i, v := range dst {
			if v != want {
				t.Fatalf("n=%d i=%d: AXPY = %v, want the unfused %v", n, i, v, want)
			}
		}
	}
}

func TestAXPYRows(t *testing.T) {
	dst := []float64{1, 1, 1}
	AXPYRows(dst, []float64{2, -1}, []float64{1, 2, 3, 10, 20, 30})
	if dst[0] != -7 || dst[1] != -15 || dst[2] != -23 {
		t.Errorf("AXPYRows = %v", dst)
	}
	AXPYRows(dst, nil, nil) // no rows: unchanged
	if dst[0] != -7 {
		t.Errorf("AXPYRows with no rows changed dst: %v", dst)
	}
	defer func() {
		if recover() == nil {
			t.Error("no panic on a matrix that is not rows x columns")
		}
	}()
	AXPYRows(dst, []float64{1, 2}, []float64{1, 2, 3, 4, 5})
}

// TestDenseRowsMatchesAXPYRowsBitwise: the row-tiled dense layer is, per
// row, a copy of the bias then AXPYRows — over every row count across the
// four-row tile seam, inner widths 0–60 and widths 0–70 across the 8/4/1
// column-block seams, with a special value planted in one input, weight or
// bias per shape.
func TestDenseRowsMatchesAXPYRowsBitwise(t *testing.T) {
	r := xrand.New(35)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1),
		math.Float64frombits(3), math.MaxFloat64, 1 + 0x1p-52}
	for rows := 0; rows <= 9; rows++ {
		for k := 0; k <= 60; k++ {
			for n := 0; n <= 70; n++ {
				x := NewMatrix(rows, k)
				w := make([]float64, k*n+1)[1:] // off the 32-byte grid
				b := make([]float64, n)
				for _, s := range [][]float64{x.Data(), w, b} {
					for i := range s {
						s[i] = r.NormFloat64()
					}
				}
				sp := specials[(rows+k+n)%len(specials)]
				switch (rows + k + n) % 3 {
				case 0:
					if rows > 0 && k > 0 {
						x.Row(rows / 2)[k/2] = sp
					}
				case 1:
					if k > 0 && n > 0 {
						w[(k/2)*n+n/2] = sp
					}
				default:
					if n > 0 {
						b[n/2] = sp
					}
				}
				out := NewMatrix(rows, n)
				DenseRows(out, x, w, b)
				for i := 0; i < rows; i++ {
					want := append([]float64(nil), b...)
					AXPYRows(want, x.Row(i), w)
					for j, v := range want {
						if math.Float64bits(out.Row(i)[j]) != math.Float64bits(v) {
							t.Fatalf("rows=%d k=%d n=%d: out[%d][%d] = %#x, AXPYRows %#x",
								rows, k, n, i, j, math.Float64bits(out.Row(i)[j]), math.Float64bits(v))
						}
					}
				}
			}
		}
	}
}

func TestDenseRowsPanicsOnShapeMismatch(t *testing.T) {
	for _, c := range []struct {
		out, x Matrix
		w, b   []float64
	}{
		{NewMatrix(2, 3), NewMatrix(3, 2), make([]float64, 6), make([]float64, 3)},
		{NewMatrix(2, 3), NewMatrix(2, 2), make([]float64, 5), make([]float64, 3)},
		{NewMatrix(2, 3), NewMatrix(2, 2), make([]float64, 6), make([]float64, 2)},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %dx%d inputs, %dx%d outputs, %d weights, %d biases",
						c.x.Rows(), c.x.Dim(), c.out.Rows(), c.out.Dim(), len(c.w), len(c.b))
				}
			}()
			DenseRows(c.out, c.x, c.w, c.b)
		}()
	}
}
