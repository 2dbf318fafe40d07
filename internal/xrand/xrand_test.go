package xrand

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDeterministic(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestSplitLabelsDecorrelate(t *testing.T) {
	a, b := Split(1, "alpha"), Split(1, "beta")
	same := 0
	for i := 0; i < 64; i++ {
		if a.Intn(2) == b.Intn(2) {
			same++
		}
	}
	if same == 64 {
		t.Error("distinct labels produced identical streams")
	}
	c, d := Split(1, "alpha"), Split(1, "alpha")
	for i := 0; i < 64; i++ {
		if c.Int63() != d.Int63() {
			t.Fatal("same label diverged")
		}
	}
}

func TestSampleWithoutReplacementProperties(t *testing.T) {
	f := func(seed int64, nRaw, kRaw uint8) bool {
		n := int(nRaw)%50 + 1
		k := int(kRaw) % (n + 1)
		out := SampleWithoutReplacement(New(seed), n, k)
		if len(out) != k {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if v < 0 || v >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleWithoutReplacementPanicsWhenTooLarge(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for k > n")
		}
	}()
	SampleWithoutReplacement(New(1), 3, 4)
}

func TestSampleWithoutReplacementUniform(t *testing.T) {
	// Every element of a population of 10 should be selected roughly
	// equally often across many size-3 samples.
	r := New(7)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range SampleWithoutReplacement(r, 10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for i, c := range counts {
		if math.Abs(float64(c)-want) > want*0.1 {
			t.Errorf("element %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
}

func TestCategorical(t *testing.T) {
	r := New(5)
	weights := []float64{1, 0, 3}
	counts := make([]int, 3)
	const trials = 40000
	for i := 0; i < trials; i++ {
		counts[Categorical(r, weights)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight category drawn %d times", counts[1])
	}
	ratio := float64(counts[2]) / float64(counts[0])
	if math.Abs(ratio-3) > 0.3 {
		t.Errorf("weight ratio = %v, want ~3", ratio)
	}
}

func TestCategoricalPanicsOnNoMass(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for zero-mass distribution")
		}
	}()
	Categorical(New(1), []float64{0, -1})
}

func TestBernoulli(t *testing.T) {
	r := New(9)
	hits := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		if Bernoulli(r, 0.3) {
			hits++
		}
	}
	p := float64(hits) / trials
	if math.Abs(p-0.3) > 0.02 {
		t.Errorf("Bernoulli(0.3) rate = %v", p)
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(13)
	var sum, sumSq float64
	const trials = 50000
	for i := 0; i < trials; i++ {
		v := Normal(r, 2, 3)
		sum += v
		sumSq += v * v
	}
	mean := sum / trials
	sd := math.Sqrt(sumSq/trials - mean*mean)
	if math.Abs(mean-2) > 0.1 || math.Abs(sd-3) > 0.1 {
		t.Errorf("Normal(2,3): mean=%v sd=%v", mean, sd)
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	r := New(17)
	xs := []int{0, 1, 2, 3, 4, 5}
	Shuffle(r, xs)
	seen := map[int]bool{}
	for _, v := range xs {
		seen[v] = true
	}
	if len(seen) != 6 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}

// referenceCategorical is Categorical as it stood before the CDF: two linear
// passes over the weights per draw. Kept verbatim as the reference.
func referenceCategorical(r *rand.Rand, weights []float64) int {
	total := 0.0
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		panic("xrand: categorical distribution has no mass")
	}
	u := r.Float64() * total
	acc := 0.0
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		acc += w
		if u < acc {
			return i
		}
	}
	return len(weights) - 1
}

// TestCategoricalMatchesLinearScan requires Categorical and CDF.Draw to
// return the index the linear scan returns from the same generator state,
// and to leave the generator in the same state — including weights that are
// zero, negative, or too small to move the running sum.
func TestCategoricalMatchesLinearScan(t *testing.T) {
	gen := New(11)
	for trial := 0; trial < 200; trial++ {
		n := 1 + gen.Intn(300)
		weights := make([]float64, n)
		for i := range weights {
			switch gen.Intn(6) {
			case 0:
				weights[i] = 0
			case 1:
				weights[i] = -gen.Float64()
			case 2:
				weights[i] = 1e-30 // absorbed by any running sum near 1
			default:
				weights[i] = gen.Float64() * 3
			}
		}
		weights[gen.Intn(n)] = 1 // some mass, possibly followed by zero-weight tails
		seed := int64(trial)
		want, got, drawn := New(seed), New(seed), New(seed)
		cdf := NewCDF(weights)
		for d := 0; d < 50; d++ {
			w := referenceCategorical(want, weights)
			if g := Categorical(got, weights); g != w {
				t.Fatalf("trial %d draw %d: Categorical = %d, linear scan = %d", trial, d, g, w)
			}
			if g := cdf.Draw(drawn); g != w {
				t.Fatalf("trial %d draw %d: CDF.Draw = %d, linear scan = %d", trial, d, g, w)
			}
		}
		if want.Int63() != got.Int63() {
			t.Fatalf("trial %d: generator states diverged", trial)
		}
	}
}

// BenchmarkCDFDraw reports the per-draw cost at two corpus sizes: it must
// not grow with n the way the linear scan's does.
func BenchmarkCDFDraw(b *testing.B) {
	for _, n := range []int{20000, 60000} {
		weights := make([]float64, n)
		gen := New(1)
		for i := range weights {
			weights[i] = gen.Float64() + 0.05
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			cdf := NewCDF(weights)
			r := New(2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sink = cdf.Draw(r)
			}
		})
	}
}

var sink int
