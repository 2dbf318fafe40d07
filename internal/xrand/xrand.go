// Package xrand provides deterministic random-number utilities used across
// the repository: splittable seeded sources, sampling without replacement,
// shuffles, and common distributions.
//
// All experiment code takes an explicit *rand.Rand (or a seed) so that every
// table and figure regenerates identically run-to-run.
package xrand

import (
	"hash/fnv"
	"math/rand"
	"sort"
)

// New returns a deterministic source for the given seed.
func New(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
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

// Shuffle shuffles ints in place.
func Shuffle(r *rand.Rand, xs []int) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// Normal returns a normal variate with the given mean and standard deviation.
func Normal(r *rand.Rand, mean, stddev float64) float64 {
	return mean + stddev*r.NormFloat64()
}

// CDF is a categorical distribution prepared for repeated draws: the running
// left-fold of the positive weights, built once in O(n), binary-searched per
// draw in O(log n). The partial sums are the very floats a linear scan would
// accumulate and compare against, so Draw returns the index that scan would
// for the same *rand.Rand state — bit for bit, not just in distribution.
type CDF struct {
	cum []float64 // cum[i] = sum of the positive weights[0..i], folded left to right
}

// NewCDF prepares the distribution with probability proportional to
// weights[i]. Non-positive weights are treated as zero. It panics if all
// weights are zero or the slice is empty.
func NewCDF(weights []float64) *CDF {
	return NewCDFInPlace(append([]float64(nil), weights...))
}

// NewCDFInPlace is NewCDF for a caller done with its weights: it overwrites
// the slice with the partial sums and keeps it, allocating nothing.
func NewCDFInPlace(weights []float64) *CDF {
	acc := 0.0
	for i, w := range weights {
		if w > 0 {
			acc += w
		}
		weights[i] = acc
	}
	if acc <= 0 {
		panic("xrand: categorical distribution has no mass")
	}
	return &CDF{cum: weights}
}

// Total returns the sum of the positive weights.
func (c *CDF) Total() float64 { return c.cum[len(c.cum)-1] }

// Draw returns an index in [0, len(weights)), consuming exactly one
// r.Float64(). The first index whose partial sum exceeds u always carries a
// positive weight: a zero-weight (or absorbed) entry repeats its
// predecessor's sum, so the search cannot land on it.
func (c *CDF) Draw(r *rand.Rand) int {
	u := r.Float64() * c.Total()
	i := sort.Search(len(c.cum), func(i int) bool { return u < c.cum[i] })
	if i == len(c.cum) {
		return len(c.cum) - 1 // u rounded up to the total
	}
	return i
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
