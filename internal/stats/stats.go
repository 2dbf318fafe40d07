// Package stats implements the statistical machinery behind the query
// processors and the evaluation harness: moments, correlation, concentration
// bounds (empirical Bernstein, Hoeffding), quantiles, and bootstrap
// confidence intervals.
package stats

import (
	"math"
	"sort"
)

// Mean returns the arithmetic mean of xs, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range xs {
		s += v
	}
	return s / float64(len(xs))
}

// Variance returns the unbiased sample variance of xs, or 0 when len(xs) < 2.
func Variance(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	s := 0.0
	for _, v := range xs {
		d := v - m
		s += d * d
	}
	return s / float64(n-1)
}

// StdDev returns the sample standard deviation.
func StdDev(xs []float64) float64 {
	return math.Sqrt(Variance(xs))
}

// Covariance returns the unbiased sample covariance of paired observations.
// It panics on length mismatch and returns 0 when fewer than two pairs.
func Covariance(xs, ys []float64) float64 {
	if len(xs) != len(ys) {
		panic("stats: covariance length mismatch")
	}
	n := len(xs)
	if n < 2 {
		return 0
	}
	mx, my := Mean(xs), Mean(ys)
	s := 0.0
	for i := range xs {
		s += (xs[i] - mx) * (ys[i] - my)
	}
	return s / float64(n-1)
}

// Correlation returns the Pearson correlation coefficient of paired
// observations. If either side has zero variance it returns 0.
func Correlation(xs, ys []float64) float64 {
	sx, sy := StdDev(xs), StdDev(ys)
	if sx == 0 || sy == 0 {
		return 0
	}
	return Covariance(xs, ys) / (sx * sy)
}

// RSquared returns the squared Pearson correlation, the ρ² the paper reports
// for proxy-score quality.
func RSquared(xs, ys []float64) float64 {
	r := Correlation(xs, ys)
	return r * r
}

// Quantile returns the q-quantile (0 <= q <= 1) of xs by linear interpolation
// between order statistics. It panics for an empty slice.
func Quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		panic("stats: quantile of empty slice")
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	if q <= 0 {
		return sorted[0]
	}
	if q >= 1 {
		return sorted[len(sorted)-1]
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// EmpiricalBernsteinRadius returns the half-width of a (1-delta) confidence
// interval for the mean of n i.i.d. observations bounded in a range of width
// rangeWidth with sample standard deviation sd, per Audibert, Munos &
// Szepesvári (2009) as used by BlazeIt's EBS stopping rule:
//
//	ε = sd·sqrt(2·ln(3/δ)/n) + 3·rangeWidth·ln(3/δ)/n
func EmpiricalBernsteinRadius(sd float64, rangeWidth float64, n int, delta float64) float64 {
	if n <= 0 {
		return math.Inf(1)
	}
	logTerm := math.Log(3 / delta)
	return sd*math.Sqrt(2*logTerm/float64(n)) + 3*rangeWidth*logTerm/float64(n)
}

// Welford accumulates running mean and variance in one pass. The zero value
// is ready to use.
type Welford struct {
	n    int
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add incorporates an observation.
func (w *Welford) Add(x float64) {
	w.n++
	if w.n == 1 {
		w.min, w.max = x, x
	} else {
		if x < w.min {
			w.min = x
		}
		if x > w.max {
			w.max = x
		}
	}
	delta := x - w.mean
	w.mean += delta / float64(w.n)
	w.m2 += delta * (x - w.mean)
}

// N returns the number of observations.
func (w *Welford) N() int { return w.n }

// Mean returns the running mean.
func (w *Welford) Mean() float64 { return w.mean }

// Variance returns the unbiased running sample variance.
func (w *Welford) Variance() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n-1)
}

// StdDev returns the running sample standard deviation.
func (w *Welford) StdDev() float64 { return math.Sqrt(w.Variance()) }

// Min returns the smallest observation, or 0 if none.
func (w *Welford) Min() float64 { return w.min }

// Max returns the largest observation, or 0 if none.
func (w *Welford) Max() float64 { return w.max }

// Range returns max-min.
func (w *Welford) Range() float64 { return w.max - w.min }

// CoWelford accumulates the running means and centered co-moments of paired
// observations in one pass (Welford's update extended to the cross term).
// The zero value is ready to use.
type CoWelford struct {
	n          int
	meanX      float64
	meanY      float64
	m2X, m2Y   float64 // Σ(x-x̄)², Σ(y-ȳ)²
	comomentXY float64 // Σ(x-x̄)(y-ȳ)
}

// Add incorporates one (x, y) pair.
func (w *CoWelford) Add(x, y float64) {
	w.n++
	dx := x - w.meanX
	dy := y - w.meanY
	w.meanX += dx / float64(w.n)
	w.meanY += dy / float64(w.n)
	w.m2X += dx * (x - w.meanX)
	w.m2Y += dy * (y - w.meanY)
	w.comomentXY += dx * (y - w.meanY)
}

// N returns the number of pairs.
func (w *CoWelford) N() int { return w.n }

// SumSquaresX returns Σ(x-x̄)².
func (w *CoWelford) SumSquaresX() float64 { return w.m2X }

// SumSquaresY returns Σ(y-ȳ)².
func (w *CoWelford) SumSquaresY() float64 { return w.m2Y }

// SumProducts returns Σ(x-x̄)(y-ȳ).
func (w *CoWelford) SumProducts() float64 { return w.comomentXY }
