// Package xrand provides deterministic random-number utilities used across
// the repository: splittable seeded sources, sampling without replacement,
// shuffles, and common distributions.
//
// All experiment code takes an explicit *rand.Rand (or a seed) so that every
// table and figure regenerates identically run-to-run.
package xrand

import (
	"hash/fnv"
	"math"
	"math/bits"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
)

// New returns a deterministic source for the given seed: the generator
// rand.New(rand.NewSource(seed)) returns, bit for bit. Seeding math/rand's
// source costs ~10 µs, and a server seeds every request from one of a few
// constants, so the first memoSeeds seeds New sees keep a seeded template and
// later calls for them copy it (~1 µs). Any other seed is seeded fresh.
func New(seed int64) *rand.Rand {
	for _, t := range *seeded.Load() {
		if t.seed == seed {
			return rand.New(cloneSource(t.src))
		}
	}
	src := rand.NewSource(seed)
	memoize(seed, src)
	return rand.New(src)
}

// memoSeeds bounds the seeds New keeps a template for: 16 sources of 5 KB.
const memoSeeds = 16

// template is one memoized seed and its freshly seeded source, which nothing
// draws from.
type template struct {
	seed int64
	src  rand.Source
}

var (
	// seeded is the memo, read lock-free; a published slice is never
	// written, memoize publishes a longer one.
	seeded   atomic.Pointer[[]template]
	memoizeM sync.Mutex
)

func init() { seeded.Store(new([]template)) }

// memoize keeps a template of src, which must be freshly seeded with seed and
// not yet drawn from, while the memo has room.
func memoize(seed int64, src rand.Source) {
	memoizeM.Lock()
	defer memoizeM.Unlock()
	ts := *seeded.Load()
	if len(ts) == memoSeeds {
		return
	}
	for _, t := range ts {
		if t.seed == seed {
			return
		}
	}
	grown := append(append(make([]template, 0, len(ts)+1), ts...), template{seed, cloneSource(src)})
	seeded.Store(&grown)
}

// cloneSource returns an independent copy of src in its current state.
// math/rand's lagged-Fibonacci source is a flat value struct behind a
// pointer, so copying the struct copies the whole generator.
func cloneSource(src rand.Source) rand.Source {
	v := reflect.ValueOf(src).Elem()
	c := reflect.New(v.Type())
	c.Elem().Set(v)
	return c.Interface().(rand.Source)
}

// Split derives an independent deterministic source from a parent seed and a
// label. Distinct labels yield decorrelated streams, so subsystems (dataset
// generation, training, query sampling) can share one experiment seed without
// consuming each other's state.
func Split(seed int64, label string) *rand.Rand {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(label))
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// Perm returns a random permutation of [0, n).
func Perm(r *rand.Rand, n int) []int {
	return r.Perm(n)
}

// SampleWithoutReplacement returns k distinct indices drawn uniformly from
// [0, n). It panics if k > n. For small k relative to n it uses rejection
// sampling; otherwise it uses a partial Fisher-Yates shuffle.
func SampleWithoutReplacement(r *rand.Rand, n, k int) []int {
	if k > n {
		panic("xrand: sample size exceeds population")
	}
	if k == 0 {
		return nil
	}
	if k*4 < n {
		seen := make(map[int]struct{}, k)
		out := make([]int, 0, k)
		for len(out) < k {
			i := r.Intn(n)
			if _, ok := seen[i]; ok {
				continue
			}
			seen[i] = struct{}{}
			out = append(out, i)
		}
		return out
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	for i := 0; i < k; i++ {
		j := i + r.Intn(n-i)
		idx[i], idx[j] = idx[j], idx[i]
	}
	return idx[:k]
}

// IntnBlock fills dst with what len(dst) successive r.Intn(n) calls return,
// consuming the generator exactly as they would. It works out what Intn
// derives from n alone once, and reduces each accepted draw modulo n by
// multiplication (Lemire's exact 32-bit fastmod) instead of a division. It
// panics if n <= 0.
func IntnBlock(r *rand.Rand, n int, dst []int) {
	if n <= 0 || n > math.MaxInt32 || n&(n-1) == 0 {
		for i := range dst {
			dst[i] = r.Intn(n)
		}
		return
	}
	// Int31n's rejection limit, and ⌈2⁶⁴/n⌉: for v < 2³², v mod n is the
	// high word of (m·v mod 2⁶⁴)·n.
	limit := int32((1 << 31) - 1 - (1<<31)%uint32(n))
	d := uint64(n)
	m := ^uint64(0)/d + 1
	for i := range dst {
		v := r.Int31()
		for v > limit {
			v = r.Int31()
		}
		hi, _ := bits.Mul64(m*uint64(v), d)
		dst[i] = int(hi)
	}
}

// Shuffle shuffles ints in place.
func Shuffle(r *rand.Rand, xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Normal returns a normal variate with the given mean and standard deviation.
func Normal(r *rand.Rand, mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// CDF is a categorical distribution prepared for repeated draws: the running
// left-fold of the positive weights and a guide table over it, built once in
// O(n). The partial sums are the very floats a linear scan would accumulate
// and compare against, so Draw returns the index that scan would for the same
// *rand.Rand state — bit for bit, not just in distribution.
//
// The guide cuts [0, total] into n equal buckets, bucket(x) = ⌊x·n/total⌋
// clamped to n, and guide[j] is the first index whose partial sum falls in
// bucket j or later. bucket is monotone, so every partial sum before guide[j]
// is below any u in bucket j and every one from guide[j+1] on is above it: a
// draw searches only cum[guide[j]:guide[j+1]], about one entry when no weight
// dominates, and never more than the whole vector.
type CDF struct {
	cum   []float64 // cum[i] = sum of the positive weights[0..i], folded left to right
	scale float64   // n / total
	guide []int32   // n+2 entries: guide[j] = first i with bucket(cum[i]) >= j, else n
}

// NewCDF prepares the distribution with probability proportional to
// weights[i]. Non-positive weights are treated as zero. It panics if all
// weights are zero or the slice is empty.
func NewCDF(weights []float64) *CDF {
	return NewCDFInPlace(append([]float64(nil), weights...))
}

// NewCDFInPlace is NewCDF for a caller done with its weights: it overwrites
// the slice with the partial sums and keeps it, allocating only the guide
// (4 bytes per weight). It panics on more than math.MaxInt32-1 weights.
func NewCDFInPlace(weights []float64) *CDF { return ExtendCDF(nil, weights, 0) }

// ExtendCDF is NewCDFInPlace over weights whose first from entries are
// prev's: it copies prev's partial sums over them instead of folding them
// again — the very floats the fold computes, since it runs left to right —
// and folds only weights[from:]. weights[:from] are overwritten unread; the
// guide is built over the whole vector. A nil prev takes from = 0.
func ExtendCDF(prev *CDF, weights []float64, from int) *CDF {
	acc := 0.0
	if from > 0 {
		copy(weights[:from], prev.cum[:from])
		acc = weights[from-1]
	}
	for i := from; i < len(weights); i++ {
		if w := weights[i]; w > 0 {
			acc += w
		}
		weights[i] = acc
	}
	if acc <= 0 {
		panic("xrand: categorical distribution has no mass")
	}
	n := len(weights)
	if n >= math.MaxInt32 {
		panic("xrand: categorical distribution too large for its guide")
	}
	// The partial sums' buckets ascend with their index, so the first index
	// in bucket j or later is one past the last index in an earlier bucket:
	// each index stamps itself, plus one, one slot past its bucket, and a
	// running maximum carries the stamps over the empty buckets — two
	// branch-free passes.
	scale, guide := float64(n)/acc, make([]int32, n+2)
	for i, x := range weights {
		guide[bucket(x, scale, n)+1] = int32(i + 1)
	}
	var last int32
	for j, g := range guide {
		last = max(last, g)
		guide[j] = last
	}
	return &CDF{cum: weights, scale: scale, guide: guide}
}

// bucket is the guide bucket of x ≥ 0 among n, in [0, n]. A product at or
// past n — NaN included, from an infinite total or an underflowed one — is
// bucket n, which keeps the map monotone at the extremes of the float range.
func bucket(x, scale float64, n int) int {
	b := x * scale
	if !(b < float64(n)) {
		return n
	}
	return int(b)
}

// Total returns the sum of the positive weights.
func (c *CDF) Total() float64 { return c.cum[len(c.cum)-1] }

// PartialSum returns the sum of the positive weights[0..i], folded left to
// right.
func (c *CDF) PartialSum(i int) float64 { return c.cum[i] }

// Draw returns an index in [0, len(weights)), consuming exactly one
// r.Float64(). The first index whose partial sum exceeds u always carries a
// positive weight: a zero-weight (or absorbed) entry repeats its
// predecessor's sum, so the search cannot land on it.
func (c *CDF) Draw(r *rand.Rand) int {
	u := r.Float64() * c.Total()
	j := bucket(u, c.scale, len(c.cum))
	lo, hi := int(c.guide[j]), int(c.guide[j+1])
	return c.searchFrom(u, lo, hi, c.cum[min(int(uint(lo+hi)>>1), len(c.cum)-1)])
}

// searchFrom returns the first index in the guide's range [lo, hi) of u's
// bucket whose partial sum exceeds u — hi when none does, the last index when
// that is past the end — given cum at the range's midpoint (clamped to the
// last index), which the first step of the binary search compares u against.
func (c *CDF) searchFrom(u float64, lo, hi int, probe float64) int {
	if lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u < probe {
			hi = m
		} else {
			lo = m + 1
		}
	}
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if u < c.cum[m] {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(c.cum) {
		return len(c.cum) - 1 // u rounded up to the total
	}
	return lo
}

// Block is the number of draws the samplers take from their generator ahead
// of consuming them: enough independent draws that the cache misses of
// gathering their scores overlap, few enough that the draws a stop throws
// away cost nothing measurable.
const Block = 64

// DrawBlock fills dst with len(dst) draws, consuming one r.Float64() per draw
// in order: dst[i] is what the i-th of len(dst) successive Draw calls would
// return. It runs Draw's steps a block at a time — the generator, then every
// draw's guide entries, then every draw's first probe of the partial sums,
// then the rest of each search — so the reads of one step, which depend on
// nothing but the step before, overlap across the block instead of each
// draw's misses waiting behind the last draw's.
func (c *CDF) DrawBlock(r *rand.Rand, dst []int) {
	var (
		us     [Block]float64
		lo, hi [Block]int32
		probe  [Block]float64
	)
	n, total := len(c.cum), c.Total()
	for len(dst) > 0 {
		k := min(len(dst), Block)
		for i := range k {
			us[i] = r.Float64() * total
		}
		for i, u := range us[:k] {
			j := bucket(u, c.scale, n)
			lo[i], hi[i] = c.guide[j], c.guide[j+1]
		}
		for i := range k {
			probe[i] = c.cum[min(int(uint32(lo[i]+hi[i])>>1), n-1)]
		}
		for i, u := range us[:k] {
			dst[i] = c.searchFrom(u, int(lo[i]), int(hi[i]), probe[i])
		}
		dst = dst[k:]
	}
}

// Categorical draws an index in [0, len(weights)) with probability
// proportional to weights[i]. Non-positive weights are treated as zero. It
// panics if all weights are zero or the slice is empty. Callers drawing more
// than once from the same weights build the CDF once and call Draw.
func Categorical(r *rand.Rand, weights []float64) int {
	return NewCDF(weights).Draw(r)
}

// Bernoulli returns true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	return r.Float64() < p
}
