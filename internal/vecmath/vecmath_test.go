package vecmath

import (
	"math"
	"testing"
	"testing/quick"
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

func TestAddSubScaleClone(t *testing.T) {
	a := []float64{1, 2}
	b := []float64{3, 5}
	if got := Add(a, b); got[0] != 4 || got[1] != 7 {
		t.Errorf("Add = %v", got)
	}
	if got := Sub(b, a); got[0] != 2 || got[1] != 3 {
		t.Errorf("Sub = %v", got)
	}
	if got := Scale(a, 2); got[0] != 2 || got[1] != 4 {
		t.Errorf("Scale = %v", got)
	}
	c := Clone(a)
	c[0] = 99
	if a[0] == 99 {
		t.Error("Clone shares storage")
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

func TestMean(t *testing.T) {
	got := Mean([][]float64{{1, 2}, {3, 4}})
	if got[0] != 2 || got[1] != 3 {
		t.Errorf("Mean = %v", got)
	}
}

func TestMeanPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on empty input")
		}
	}()
	Mean(nil)
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
