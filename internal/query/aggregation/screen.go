package aggregation

import (
	"math"

	"repro/internal/stats"
)

// The screen's two tolerances. Welford co-moments carry a relative rounding
// error of roughly s·ε·κ against the two-pass sums the exact pass computes
// (κ, the conditioning of the centered data, is a small constant once the
// inputs are shifted as add does), i.e. below 1e-9 for any sample count a
// query reaches. The residual sum of squares is a difference of two such
// sums, so its relative error is that divided by the fraction that survives
// the subtraction: screenCancelGuard bounds the amplification at 1e3, and
// screenMargin then leaves three more orders of magnitude of headroom.
const (
	// screenMargin is the relative slack the lower bound must clear the
	// error target by before the exact pass is skipped.
	screenMargin = 1e-6
	// screenCancelGuard is the smallest fraction of the raw sum of squares
	// the residual sum of squares may keep (1-ρ² of the sample) for the
	// screened variance to be trusted; below it the exact pass runs.
	screenCancelGuard = 1e-3
)

// point is one sample: its labeler score and its proxy score (0 without a
// proxy).
type point struct{ f, p float64 }

// stopScreen maintains, in O(1) per draw, a lower bound on the
// empirical-Bernstein half-width the exact pass would compute over the
// samples drawn so far. While the bound stays above the error target the
// sampler cannot stop, so the O(s) exact pass is skipped; the screen never
// decides to stop and never contributes a digit to the result.
//
// Both terms of the half-width are bounded from below:
//
//   - Spread. For any coefficient c the residuals y = f - c·(p - E[p]) have
//     Σ(y-ȳ)² = Sff - 2c·Sfp + c²·Spp ≥ Sff - Sfp²/Spp, the least-squares
//     minimum, so the co-moments bound the residual variance without knowing
//     the exact pass's c to the last bit.
//   - Range. max(y) - min(y) is at least y_a - y_b for any two samples a, b;
//     the screen keeps the pair with the widest gap it has seen under the
//     running coefficient, refreshed with the true argmax and argmin every
//     time an exact pass runs.
type stopScreen struct {
	target    float64 // Options.ErrTarget
	delta     float64 // Options.Delta
	proxyMean float64

	origin float64         // first score drawn; scores are accumulated relative to it
	mom    stats.CoWelford // x: f - origin, y: p - proxyMean
	hi, lo point           // samples with the largest and smallest residual seen
}

// slope returns the least-squares control-variate coefficient Sfp/Spp of the
// samples so far (0 when the proxy scores drawn are all equal), the O(1)
// counterpart of the exact pass's Covariance/Variance.
func (s *stopScreen) slope() float64 {
	if spp := s.mom.SumSquaresY(); spp > 0 {
		return s.mom.SumProducts() / spp
	}
	return 0
}

// add incorporates one draw. Shifting by the first score and the known proxy
// mean changes no co-moment mathematically but keeps the running means near
// zero, so the accumulators stay well conditioned whatever the magnitude of
// the scores.
func (s *stopScreen) add(f, p float64) {
	if s.mom.N() == 0 {
		s.origin = f
		s.hi, s.lo = point{f, p}, point{f, p}
	}
	s.mom.Add(f-s.origin, p-s.proxyMean)
	c := s.slope()
	if y := f - c*p; y > s.hi.f-c*s.hi.p {
		s.hi = point{f, p}
	} else if y < s.lo.f-c*s.lo.p {
		s.lo = point{f, p}
	}
}

// bound returns the lower bound on the half-width over the samples drawn so
// far; trusted is false when cancellation (or zero spread) left the screened
// variance without enough digits to stand behind the bound.
func (s *stopScreen) bound() (half float64, trusted bool) {
	n := s.mom.N()
	if n < 2 {
		return 0, false
	}
	c := s.slope()
	sff := s.mom.SumSquaresX()
	resid := sff - c*s.mom.SumProducts()
	if !(resid > screenCancelGuard*sff) {
		return 0, false
	}
	sd := math.Sqrt(resid / float64(n-1))
	spread := math.Max(0, (s.hi.f-s.lo.f)-c*(s.hi.p-s.lo.p))
	return stats.EmpiricalBernsteinRadius(sd, spread, n, s.delta), true
}

// provesNotYet reports whether the half-width over the samples drawn so far
// is certain to exceed the error target. False means "run the exact pass",
// never "stop".
func (s *stopScreen) provesNotYet() bool {
	half, trusted := s.bound()
	return trusted && half*(1-screenMargin) > s.target
}
