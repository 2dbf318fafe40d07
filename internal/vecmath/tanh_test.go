package vecmath

import (
	"math"
	"testing"

	"repro/internal/xrand"
)

// tanhBitwise checks Tanh against math.Tanh on xs, into a second slice and
// in place.
func tanhBitwise(t *testing.T, what string, xs []float64) {
	t.Helper()
	got := make([]float64, len(xs))
	Tanh(got, xs)
	in := append([]float64(nil), xs...)
	Tanh(in, in)
	for i, x := range xs {
		want := math.Float64bits(math.Tanh(x))
		if math.Float64bits(got[i]) != want || math.Float64bits(in[i]) != want {
			t.Fatalf("%s: Tanh(%v = %#x) = %#x (in place %#x), math.Tanh %#x",
				what, x, math.Float64bits(x), math.Float64bits(got[i]), math.Float64bits(in[i]), want)
		}
	}
}

// TestTanhMatchesMathTanhBitwise pins Tanh to math.Tanh, bit for bit, on
// about ten million inputs per process: normal draws, uniform ±50 and ±0.7
// (both branches of math.tanh and the saturation), random bit patterns
// (NaNs with every payload, infinities, subnormals), and each branch edge
// with its neighbours. CI runs it again under GODEBUG=cpu.fma=off, where
// math.Exp rounds unfused and the dispatch must fall back.
func TestTanhMatchesMathTanhBitwise(t *testing.T) {
	const perKind = 2 << 20
	n := perKind
	if testing.Short() {
		n = perKind / 16
	}
	r := xrand.New(36)
	xs := make([]float64, n)
	kinds := []struct {
		name string
		draw func() float64
	}{
		{"normal", r.NormFloat64},
		{"uniform ±50", func() float64 { return 100*r.Float64() - 50 }},
		{"uniform ±0.7", func() float64 { return 1.4*r.Float64() - 0.7 }},
		{"bit patterns", func() float64 { return math.Float64frombits(r.Uint64()) }},
		{"subnormals", func() float64 {
			return math.Copysign(math.Float64frombits(r.Uint64()>>12), r.NormFloat64())
		}},
	}
	for _, k := range kinds {
		for i := range xs {
			xs[i] = k.draw()
		}
		tanhBitwise(t, k.name, xs)
	}

	var edges []float64
	big := 0.5 * 8.8029691931113054295988e+01
	for _, e := range []float64{0, 0.625, big, math.Inf(1), math.MaxFloat64, math.SmallestNonzeroFloat64, 1} {
		lo, hi := e, e
		for i := 0; i < 64; i++ {
			edges = append(edges, lo, -lo, hi, -hi)
			lo, hi = math.Nextafter(lo, math.Inf(-1)), math.Nextafter(hi, math.Inf(1))
		}
	}
	edges = append(edges, math.NaN(), math.Float64frombits(0x7ff0000000000001), math.Float64frombits(0xfff8000000000123))
	tanhBitwise(t, "edges", edges)
	// Every short length at every start: the four-lane body, the scalar
	// tail and their seam.
	for n := 0; n <= 9; n++ {
		for off := 0; off < 4; off++ {
			tanhBitwise(t, "short", edges[off*37:][:n])
		}
	}
}
