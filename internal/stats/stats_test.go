package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestMeanVariance(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Errorf("Mean = %v", got)
	}
	if got := Variance(xs); math.Abs(got-32.0/7) > 1e-12 {
		t.Errorf("Variance = %v, want %v", got, 32.0/7)
	}
	if Mean(nil) != 0 || Variance([]float64{1}) != 0 {
		t.Error("degenerate inputs should give 0")
	}
}

func TestCovarianceCorrelation(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if got := Correlation(xs, ys); math.Abs(got-1) > 1e-12 {
		t.Errorf("perfect correlation = %v", got)
	}
	neg := []float64{8, 6, 4, 2}
	if got := Correlation(xs, neg); math.Abs(got+1) > 1e-12 {
		t.Errorf("perfect anticorrelation = %v", got)
	}
	if got := RSquared(xs, neg); math.Abs(got-1) > 1e-12 {
		t.Errorf("rho^2 of anticorrelated = %v", got)
	}
	flat := []float64{5, 5, 5, 5}
	if got := Correlation(xs, flat); got != 0 {
		t.Errorf("correlation with constant = %v", got)
	}
}

func TestCovariancePanicsOnMismatch(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Covariance([]float64{1}, []float64{1, 2})
}

func TestQuantile(t *testing.T) {
	xs := []float64{3, 1, 2, 4, 5}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("interpolated median = %v", got)
	}
}

func TestQuantilePanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic")
		}
	}()
	Quantile(nil, 0.5)
}

func TestEmpiricalBernsteinRadius(t *testing.T) {
	// Radius shrinks with n and is infinite for n <= 0.
	if !math.IsInf(EmpiricalBernsteinRadius(1, 1, 0, 0.05), 1) {
		t.Error("n=0 should give +inf")
	}
	prev := math.Inf(1)
	for _, n := range []int{10, 100, 1000, 10000} {
		r := EmpiricalBernsteinRadius(1, 1, n, 0.05)
		if r >= prev {
			t.Errorf("radius not decreasing at n=%d: %v >= %v", n, r, prev)
		}
		prev = r
	}
	// Zero-variance observations still pay the range term.
	if got := EmpiricalBernsteinRadius(0, 1, 100, 0.05); got <= 0 {
		t.Errorf("range term missing: %v", got)
	}
}

func TestEmpiricalBernsteinCoverage(t *testing.T) {
	// The (1-delta) interval should contain the true mean almost always.
	r := rand.New(rand.NewSource(1))
	misses := 0
	const trials = 400
	for trial := 0; trial < trials; trial++ {
		var w Welford
		for i := 0; i < 200; i++ {
			w.Add(r.Float64()) // uniform(0,1), mean 0.5
		}
		rad := EmpiricalBernsteinRadius(w.StdDev(), w.Range(), w.N(), 0.05)
		if math.Abs(w.Mean()-0.5) > rad {
			misses++
		}
	}
	if float64(misses)/trials > 0.05 {
		t.Errorf("EB interval missed the mean in %d/%d trials", misses, trials)
	}
}

// TestWelfordMatchesBatch is the property check: streaming moments equal the
// batch formulas.
func TestWelfordMatchesBatch(t *testing.T) {
	f := func(raw []float64) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		for _, v := range raw {
			if math.IsNaN(v) || math.IsInf(v, 0) || math.Abs(v) > 1e6 {
				v = 1
			}
			xs = append(xs, v)
		}
		var w Welford
		lo, hi := xs[0], xs[0]
		for _, v := range xs {
			w.Add(v)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
		}
		tol := 1e-6 * (1 + math.Abs(Mean(xs)) + Variance(xs))
		return w.N() == len(xs) &&
			math.Abs(w.Mean()-Mean(xs)) < tol &&
			math.Abs(w.Variance()-Variance(xs)) < tol &&
			w.Min() == lo && w.Max() == hi && w.Range() == hi-lo
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestWelfordEmpty(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Variance() != 0 || w.N() != 0 {
		t.Error("zero value not neutral")
	}
}
