//go:build amd64

package vecmath

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// TestAVXKernelsAgreeWithGeneric cross-checks the assembly kernels against
// the portable loops. The two paths use different accumulation shapes (and
// FMA contracts the multiply-add), so agreement is to relative tolerance,
// not bitwise — the bitwise contract is within a path, pinned by
// TestBatchKernelsMatchScalarBitwise.
func TestAVXKernelsAgreeWithGeneric(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	r := xrand.New(31)
	for _, d := range []int{0, 1, 3, 4, 7, 8, 15, 16, 17, 31, 32, 33, 48, 64, 100} {
		a := make([]float64, d)
		b := make([]float64, d)
		for i := 0; i < d; i++ {
			a[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		checkClose := func(name string, got, want float64) {
			t.Helper()
			if diff := math.Abs(got - want); diff > 1e-9*(1+math.Abs(want)) {
				t.Errorf("d=%d %s: AVX %v vs generic %v", d, name, got, want)
			}
		}
		checkClose("sqL2", sqL2AVX(a, b), sqL2Generic(a, b))
		checkClose("dot", dotAVX(a, b), dotGeneric(a, b))
	}
}

// TestAVXKernelIdenticalVectors pins the property the distance semantics
// rely on: the distance from a vector to itself is exactly 0 in either
// kernel (every lane difference is exactly 0 before squaring).
func TestAVXKernelIdenticalVectors(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	r := xrand.New(32)
	for _, d := range []int{1, 5, 16, 33} {
		a := make([]float64, d)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		if got := sqL2AVX(a, a); got != 0 {
			t.Errorf("d=%d: sqL2AVX(a,a) = %v, want exactly 0", d, got)
		}
	}
}

// TestAxpyAVXMatchesGenericBitwise pins the contract MLP training rests on:
// the assembly AXPY and the portable loop give the same bits for every
// element — all lengths across the 16-wide / 4-wide / scalar-tail seams,
// slices starting at every offset of a 32-byte lane, and the special values
// whose handling differs between a fused and an unfused multiply-add.
func TestAxpyAVXMatchesGenericBitwise(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	r := xrand.New(33)
	denorm := math.Float64frombits(3)
	// One special per element at most two operands deep, so the expected
	// NaN is the single one IEEE propagation yields on any operand order.
	specials := []struct{ s, a, dst float64 }{
		{1.5, math.NaN(), 2},                     // NaN in a
		{math.NaN(), 1, 2},                       // NaN scale
		{1.5, 1, math.NaN()},                     // NaN in dst
		{math.Inf(1), 0, 2},                      // Inf*0 = NaN
		{math.Inf(1), 1, math.Inf(-1)},           // Inf + -Inf = NaN
		{math.Inf(-1), 2, 1},                     // -Inf
		{2, math.Inf(1), math.Inf(1)},            // Inf + Inf
		{0.5, denorm, 0},                         // product rounds to even below the denormal grid
		{1, denorm, -denorm},                     // exact cancellation to +0
		{math.SmallestNonzeroFloat64, 0.25, 0},   // underflow to zero
		{-1, 0, 0},                               // -0 + 0
		{1 + 0x1p-52, 1 + 0x1p-52, -1 - 0x1p-51}, // rounds differently when fused
		{math.MaxFloat64, 2, math.Inf(-1)},       // overflowed product
	}
	for n := 0; n <= 67; n++ {
		for off := 0; off < 4; off++ {
			a := make([]float64, n+8)[off : off+n]
			want := make([]float64, n+8)[(off+1)%4 : (off+1)%4+n]
			s := r.NormFloat64()
			for i := 0; i < n; i++ {
				a[i] = r.NormFloat64()
				want[i] = r.NormFloat64()
			}
			scales := []float64{s}
			if n > 0 {
				// Plant one special at a rotating position; specials that
				// fix the scale get their own pass.
				sp := specials[(n+off)%len(specials)]
				a[(n*7+off)%n], want[(n*7+off)%n] = sp.a, sp.dst
				scales = append(scales, sp.s)
			}
			for _, s := range scales {
				got := make([]float64, n+8)[(off+2)%4 : (off+2)%4+n]
				ref := append([]float64(nil), want...)
				copy(got, want)
				axpyAVX(s, a, got)
				axpyGeneric(s, a, ref)
				for i := range ref {
					if math.Float64bits(got[i]) != math.Float64bits(ref[i]) {
						t.Fatalf("n=%d off=%d s=%v i=%d: AVX %x vs generic %x (a=%v dst=%v)",
							n, off, s, i, math.Float64bits(got[i]), math.Float64bits(ref[i]), a[i], want[i])
					}
				}
			}
		}
	}
}

// TestAxpyRowsAVXMatchesRowLoopBitwise: the register-blocked kernel is, per
// element, the per-row AXPY loop — for every width across its 32/16/4/1
// column-block seams, any row count, and special values in the scales, the
// rows and the destination.
func TestAxpyRowsAVXMatchesRowLoopBitwise(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	r := xrand.New(34)
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.Float64frombits(3), math.SmallestNonzeroFloat64, math.MaxFloat64, 1 + 0x1p-52}
	for n := 0; n <= 100; n++ {
		for _, k := range []int{0, 1, 2, 5, 52} {
			s := make([]float64, k)
			m := make([]float64, k*n+3)[3:] // off the 32-byte grid
			dst := make([]float64, n+1)[1:]
			for i := range s {
				s[i] = r.NormFloat64()
			}
			for i := range m {
				m[i] = r.NormFloat64()
			}
			for i := range dst {
				dst[i] = r.NormFloat64()
			}
			if (n+k)%3 == 0 && k > 0 && n > 0 {
				// One special per element column at most (see the AXPY
				// test): plant in distinct columns.
				sp := specials[(n+k)%len(specials)]
				switch (n + k) % 9 / 3 {
				case 0:
					s[k/2] = sp
				case 1:
					m[(k/2)*n+n/2] = sp
				default:
					dst[n/2] = sp
				}
			}
			want := append([]float64(nil), dst...)
			for j, v := range s {
				axpyAVX(v, m[j*n:j*n+n], want)
			}
			ref := append([]float64(nil), dst...)
			axpyRowsGeneric(s, m, ref)
			axpyRowsAVX(s, m, dst)
			for i := range want {
				if math.Float64bits(dst[i]) != math.Float64bits(want[i]) || math.Float64bits(ref[i]) != math.Float64bits(want[i]) {
					t.Fatalf("n=%d k=%d column %d: rows kernel %x, generic %x, AXPY loop %x",
						n, k, i, math.Float64bits(dst[i]), math.Float64bits(ref[i]), math.Float64bits(want[i]))
				}
			}
		}
	}
}

// tanhMirror is math.tanh on amd64 in Go: math.Exp's fused (avxfma) or
// unfused path from exp_amd64.s, one math.FMA per fused instruction, and
// every other operation rounded where the compiled math.tanh rounds it.
func tanhMirror(x float64, fused bool) float64 {
	const (
		maxlog = 8.8029691931113054295988e+01
		log2e  = 1.4426950408889634073599246810018920
		ln2u   = 0.69314718055966295651160180568695068359375
		ln2l   = 0.28235290563031577122588448175013436025525412068e-12
	)
	z := math.Abs(x)
	switch {
	case z > 0.5*maxlog:
		return math.Copysign(1, x)
	case z >= 0.625:
		// Exp(2z): 2z <= 88.03 keeps k in [2, 127], so no special case.
		t := 2 * z
		k := math.RoundToEven(float64(log2e * t))
		c := []float64{2.4801587301587301587e-5, 1.9841269841269841270e-4, 1.3888888888888888889e-3,
			8.3333333333333333333e-3, 4.1666666666666666667e-2, 1.6666666666666666667e-1, 0.5, 1.0}
		p := c[0]
		if fused {
			t = math.FMA(-k, ln2u, t)
			t = math.FMA(-k, ln2l, t)
			t *= 0.0625
			for _, ci := range c[1:] {
				p = math.FMA(p, t, ci)
			}
		} else {
			t -= float64(k * ln2u)
			t -= float64(k * ln2l)
			t *= 0.0625
			for _, ci := range c[1:] {
				p = float64(p*t) + ci
			}
		}
		t *= p
		for i := 0; i < 3; i++ {
			t *= t + 2
		}
		if fused {
			t = math.FMA(t+2, t, 1)
		} else {
			t = float64(t*(t+2)) + 1
		}
		s := math.Ldexp(t, int(k))
		z = 1 - 2/(s+1)
		if x < 0 {
			z = -z
		}
		return z
	case x == 0:
		return x
	}
	s := x * x
	num := float64(float64(float64(-9.64399179425052238628e-1*s)+-9.92877231001918586564e1)*s) + -1.61468768441708447952e3
	den := float64(float64(float64(float64(s+1.12811678491632931402e2)*s)+2.23548839060100448583e3)*s) + 4.84406305325125486048e3
	return x + float64(float64(x*s)*num)/den
}

// TestTanhDispatch: the probe's first input separates math.Exp's fused and
// unfused paths; math.Tanh is one of the two mirrors; and the vector
// kernel is dispatched exactly when math.Tanh is the fused one — so a
// kernel that stops matching shows up here as a lost dispatch rather than
// as a silent fallback.
func TestTanhDispatch(t *testing.T) {
	x := tanhProbes[0]
	if math.Float64bits(tanhMirror(x, true)) == math.Float64bits(tanhMirror(x, false)) {
		t.Fatalf("probe %v: the fused and unfused mirrors agree, so it cannot tell them apart", x)
	}
	fused := math.Float64bits(math.Tanh(x)) == math.Float64bits(tanhMirror(x, true))
	r := xrand.New(38)
	for i := 0; i < 1<<16; i++ {
		x := 60*r.Float64() - 30
		if got, want := math.Tanh(x), tanhMirror(x, fused); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("math.Tanh(%v) = %#x, mirror (fused=%v) %#x", x, math.Float64bits(got), fused, math.Float64bits(want))
		}
	}
	if useTanhAVX != (useAVX && fused) {
		t.Errorf("vector tanh dispatched = %v, want %v (AVX2+FMA %v, math.Exp fused %v)", useTanhAVX, useAVX && fused, useAVX, fused)
	}
	t.Logf("math.Exp fused: %v, vector tanh dispatched: %v", fused, useTanhAVX)
}

// TestTanhAVXMatchesFusedMirror checks the assembly tanh against the fused
// mirror on every branch and special value, whether or not this process
// dispatches to it (under GODEBUG=cpu.fma=off it does not, and the bitwise
// test against math.Tanh then exercises the fallback only).
func TestTanhAVXMatchesFusedMirror(t *testing.T) {
	if !useAVX {
		t.Skip("no AVX2+FMA on this machine")
	}
	r := xrand.New(37)
	xs := make([]float64, 1<<18)
	for i := range xs {
		switch i % 4 {
		case 0:
			xs[i] = 100*r.Float64() - 50
		case 1:
			xs[i] = 1.4*r.Float64() - 0.7
		case 2:
			xs[i] = math.Float64frombits(r.Uint64())
		default:
			xs[i] = r.NormFloat64()
		}
	}
	xs = append(xs, tanhProbes[:]...)
	xs = append(xs, 0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(), 0.625, -0.625,
		math.Float64frombits(1), math.Float64frombits(0x7ff0000000000001), 0, 0, 0)
	got := make([]float64, len(xs))
	tanhAVX(xs, got)
	for i, x := range xs[:len(xs)&^3] {
		if want := tanhMirror(x, true); math.Float64bits(got[i]) != math.Float64bits(want) {
			t.Fatalf("tanhAVX(%v = %#x) = %#x, fused mirror %#x", x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(want))
		}
	}
}
