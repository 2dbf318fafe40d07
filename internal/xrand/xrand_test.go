package xrand

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
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

	// The guide table's edge cases: buckets that hold long runs of equal
	// partial sums, a single bucket holding all the mass, partial sums across
	// the float range, and totals so small that u·n/total overflows.
	zeroRun := make([]float64, 2000)
	zeroRun[0], zeroRun[1500] = 1, 1
	spread := make([]float64, 0, 61)
	for e := -300; e <= 300; e += 10 {
		spread = append(spread, math.Pow(10, float64(e)))
	}
	tiny := math.SmallestNonzeroFloat64
	cases := map[string][]float64{
		"zero runs":           {0, 0, 0, 1, 0, 0, 0, 0, 2, 0, 0, 0},
		"long zero run":       zeroRun,
		"single positive":     {0, 0, 0, 5, 0, 0},
		"only weight":         {3},
		"1e-300 to 1e300":     spread,
		"1e300 to 1e-300":     reversed(spread),
		"subnormal total":     {0, tiny, 0, 0},
		"subnormal weights":   {tiny, 2 * tiny, 0, 3 * tiny},
		"infinite total":      {1, math.Inf(1), 2},
		"overflowing total":   {math.MaxFloat64, math.MaxFloat64, 1},
		"NaN weight is zero":  {math.NaN(), 1, math.NaN(), 2},
		"absorbed after mass": {1, 1e-17, 1e-17, 1e-17},
	}
	for name, weights := range cases {
		cdf := NewCDF(weights)
		sources := map[string]func() *rand.Rand{
			// Float64 at its least, and at its greatest, 1-2⁻⁵³: on a
			// subnormal total u rounds up to the total, and the linear scan
			// then answers the last index.
			"Float64=0":       func() *rand.Rand { return rand.New(fixedSource(0)) },
			"Float64=1-2^-53": func() *rand.Rand { return rand.New(fixedSource(1<<63 - 1024)) },
		}
		for seed := int64(0); seed < 4; seed++ {
			sources[fmt.Sprint("seed ", seed)] = func() *rand.Rand { return New(seed) }
		}
		for src, r := range sources {
			want, drawn := r(), r()
			for d := 0; d < 200; d++ {
				if g, w := cdf.Draw(drawn), referenceCategorical(want, zeroNaNs(weights)); g != w {
					t.Fatalf("%s, %s, draw %d: CDF.Draw = %d, linear scan = %d", name, src, d, g, w)
				}
			}
		}
	}
	if u := rand.New(fixedSource(1<<63-1024)).Float64() * tiny; u != tiny {
		t.Fatalf("u = %v on a total of %v: the round-up case does not arise", u, tiny)
	}
}

// fixedSource is a generator stuck on one Int63 value.
type fixedSource int64

func (s fixedSource) Int63() int64 { return int64(s) }
func (fixedSource) Seed(int64)     {}

func reversed(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}

// zeroNaNs returns ws with each NaN replaced by 0. NewCDF treats a NaN
// weight as the zero it is documented to be (it is not positive); the linear
// scan predates NaNs, skips them in its total and adds them to its running
// sum, so it is asked about the zeroed weights.
func zeroNaNs(ws []float64) []float64 {
	out := slices.Clone(ws)
	for i, w := range out {
		if math.IsNaN(w) {
			out[i] = 0
		}
	}
	return out
}

// FuzzCDFMatchesLinearScan decodes the input as float64 weights, bit
// pattern by bit pattern — zeros, negatives, NaNs, infinities and subnormals
// included — and requires CDF.Draw, and CDF.DrawBlock over the same stream,
// to return the linear scan's index on every draw of a seeded stream.
func FuzzCDFMatchesLinearScan(f *testing.F) {
	encode := func(ws ...float64) []byte {
		out := make([]byte, 0, 8*len(ws))
		for _, w := range ws {
			out = binary.LittleEndian.AppendUint64(out, math.Float64bits(w))
		}
		return out
	}
	f.Add(int64(1), encode(1, 0, 3))
	f.Add(int64(2), encode(0, 0, math.SmallestNonzeroFloat64, 0))
	f.Add(int64(3), encode(1e-300, 1e300, 1, 1e-300))
	f.Add(int64(4), encode(math.Inf(1), -1, math.NaN(), 2))
	f.Add(int64(5), encode(math.MaxFloat64, math.MaxFloat64))
	f.Add(int64(6), encode(0.5, 1e-17, 1e-17, 0, 0, 0, 0.5))
	f.Fuzz(func(t *testing.T, seed int64, raw []byte) {
		if len(raw) < 8 || len(raw) > 8*512 {
			return
		}
		weights := make([]float64, len(raw)/8)
		mass := false
		for i := range weights {
			weights[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:]))
			mass = mass || weights[i] > 0
		}
		if !mass {
			return
		}
		cdf, linear := NewCDF(weights), zeroNaNs(weights)
		want, drawn, blocked := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
		// DrawBlock's draws come in a block of one, then one that spans
		// two of its internal chunks.
		block := make([]int, 2*Block+2)
		cdf.DrawBlock(blocked, block[:1])
		cdf.DrawBlock(blocked, block[1:])
		for d, b := range block {
			w := referenceCategorical(want, linear)
			if g := cdf.Draw(drawn); g != w {
				t.Fatalf("draw %d: CDF.Draw = %d, linear scan = %d over %v", d, g, w, weights)
			}
			if b != w {
				t.Fatalf("draw %d: CDF.DrawBlock = %d, linear scan = %d over %v", d, b, w, weights)
			}
		}
	})
}

// TestNewMatchesFreshSource: whether New copies a memoized template or seeds
// fresh, its stream is rand.New(rand.NewSource(seed))'s — for more seeds than
// the memo keeps, each asked for twice, so both paths run.
func TestNewMatchesFreshSource(t *testing.T) {
	const draws = 10000
	for seed := int64(1000); seed < 1000+3*memoSeeds; seed++ {
		for pass := 0; pass < 2; pass++ {
			got, want := New(seed), rand.New(rand.NewSource(seed))
			for d := 0; d < draws; d++ {
				if g, w := got.Int63(), want.Int63(); g != w {
					t.Fatalf("seed %d pass %d: draw %d is %d, want %d", seed, pass, d, g, w)
				}
			}
		}
	}
	if memo := *seeded.Load(); len(memo) != memoSeeds {
		t.Fatalf("the memo keeps %d seeds after %d were asked for, want %d", len(memo), 3*memoSeeds, memoSeeds)
	}
}

// TestNewConcurrentCopies has two goroutines copy one memoized template at
// once and drain their copies, each also asking for seeds of its own that the
// memo may take (run under -race); then a third copy must still read the
// stream from its start: a copy never shares state with the template or with
// another copy.
func TestNewConcurrentCopies(t *testing.T) {
	const draws = 10000
	New(1) // memoizes seed 1 unless the memo is already full
	seed := (*seeded.Load())[0].seed
	stream := func() []int64 {
		r := New(seed)
		out := make([]int64, draws)
		for i := range out {
			out[i] = r.Int63()
		}
		return out
	}
	var wg sync.WaitGroup
	streams := make([][]int64, 2)
	for g := range streams {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := int64(0); s < 4; s++ {
				New(5000 + 10*int64(g) + s)
			}
			streams[g] = stream()
		}(g)
	}
	wg.Wait()
	want := rand.New(rand.NewSource(seed))
	after := stream()
	for i := 0; i < draws; i++ {
		w := want.Int63()
		if streams[0][i] != w || streams[1][i] != w || after[i] != w {
			t.Fatalf("draw %d of seed %d: copies read %d, %d and (after both drained) %d, want %d",
				i, seed, streams[0][i], streams[1][i], after[i], w)
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

// TestIntnBlockMatchesIntn: IntnBlock returns what successive Intn calls do
// and leaves the generator where they leave it — for powers of two, the
// corpus sizes served, the largest Int31n bound, a bound past it, 2³⁰+1 (whose
// draws Int31n rejects about half the time) and bounds drawn at random.
func TestIntnBlockMatchesIntn(t *testing.T) {
	ns := []int{1, 2, 3, 7, 64, 1000, 20000, 20064, 60000, 1 << 20, 999999937, 1<<30 + 1, math.MaxInt32 - 1, math.MaxInt32, math.MaxInt32 + 5}
	pick := rand.New(rand.NewSource(9))
	for i := 0; i < 50; i++ {
		ns = append(ns, 1+pick.Intn(math.MaxInt32))
	}
	for _, n := range ns {
		for _, size := range []int{1, Block, 3*Block + 5} {
			got, want := rand.New(rand.NewSource(int64(n))), rand.New(rand.NewSource(int64(n)))
			block := make([]int, size)
			IntnBlock(got, n, block)
			for i, b := range block {
				if w := want.Intn(n); b != w {
					t.Fatalf("n=%d draw %d: IntnBlock = %d, Intn = %d", n, i, b, w)
				}
			}
			if g, w := got.Int63(), want.Int63(); g != w {
				t.Fatalf("n=%d: the generator is at %d after IntnBlock, %d after Intn", n, g, w)
			}
		}
	}
}
