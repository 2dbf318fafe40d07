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
//   - Range. max(y) - min(y) is at least y_a - y_b for any two samples a, b,
//     under any c; the screen keeps the pair with the widest gap it has seen
//     under the slope of its last check (the running slope before the
//     first), refreshed with the true argmax and argmin every time an exact
//     pass runs.
//
// A check costs a handful of flops and no logarithm, and most draws need none:
// the least-squares minimum never falls as samples are added, so once a check
// proves "not yet" at s samples with minimum R, the spread term alone,
// √(R/(m-1))·√(2·ln(3/δ)/m), still clears the target at every count m up to
// the one skipTo finds, and the screen proves those counts without looking.
type stopScreen struct {
	logTerm   float64 // ln(3/δ), the empirical-Bernstein constant
	cleared   float64 // Options.ErrTarget/(1-screenMargin): a bound above it proves "not yet"
	proxyMean float64

	origin  float64         // first score drawn; scores are accumulated relative to it
	mom     stats.CoWelford // x: f - origin, y: p - proxyMean
	c       float64         // slope of the last check, which add compares under
	checked bool            // a check has run; until then add compares under the running slope
	hi, lo  point           // samples with the largest and smallest residual seen
	next    int             // sample count of the next check; below it "not yet" is proven
}

// newStopScreen returns the screen of a query with error target target at
// failure probability delta over a proxy vector of mean proxyMean.
func newStopScreen(target, delta, proxyMean float64) stopScreen {
	return stopScreen{logTerm: math.Log(3 / delta), cleared: target / (1 - screenMargin), proxyMean: proxyMean}
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
	c := s.c
	if !s.checked {
		c = s.slope()
	}
	if y := f - c*p; y > s.hi.f-c*s.hi.p {
		s.hi = point{f, p}
	} else if y < s.lo.f-c*s.lo.p {
		s.lo = point{f, p}
	}
}

// track hands the screen the exact pass's coefficient and the samples holding
// its largest and smallest residual.
func (s *stopScreen) track(c float64, hi, lo point) {
	s.c, s.checked, s.hi, s.lo = c, true, hi, lo
}

// terms returns the two terms of the lower bound over the samples drawn so
// far — the spread term squared, sd2, and the range term, rng, so that the
// bound is √sd2 + rng, stats.EmpiricalBernsteinRadius's form with ln(3/δ)
// taken once per query — and the least-squares residual sum of squares the
// spread term rests on. It makes the current slope the one hi and lo are
// compared under. trusted is false when cancellation (or zero spread) left
// the screened variance without enough digits to stand behind the bound.
func (s *stopScreen) terms() (sd2, rng, resid float64, trusted bool) {
	n := s.mom.N()
	if n < 2 {
		return 0, 0, 0, false
	}
	s.c, s.checked = s.slope(), true
	sff := s.mom.SumSquaresX()
	resid = sff - s.c*s.mom.SumProducts()
	if !(resid > screenCancelGuard*sff) {
		return 0, 0, 0, false
	}
	nf := float64(n)
	spread := math.Max(0, (s.hi.f-s.lo.f)-s.c*(s.hi.p-s.lo.p))
	return 2 * s.logTerm * resid / ((nf - 1) * nf), 3 * spread * s.logTerm / nf, resid, true
}

// provesNotYet reports whether the half-width over the samples drawn so far
// is certain to exceed the error target. False means "run the exact pass",
// never "stop". A check compares the bound's terms with the target, squared
// where a square root would be needed, and a check that proves "not yet"
// also proves every count below skipTo's.
func (s *stopScreen) provesNotYet() bool {
	n := s.mom.N()
	if n < s.next {
		return true
	}
	sd2, rng, resid, trusted := s.terms()
	if !trusted {
		return false
	}
	// √sd2 + rng > cleared: a positive sd2 settles it once rng alone is
	// there, and otherwise sd2 must exceed what rng leaves, squared. A NaN
	// proves nothing.
	if g := s.cleared - rng; !(g <= 0 || sd2 > g*g) {
		return false
	}
	s.next = s.skipTo(resid, n)
	return true
}

// maxSkip caps skipTo's answer far below any int overflow; no query draws
// that many samples.
const maxSkip = 1 << 40

// skipTo returns the first sample count past n at which the spread term over
// a residual sum of squares of resid may no longer clear the target with the
// screen's margin: the count m solving (m-1)·m = 2·ln(3/δ)·resid/cleared²,
// stepped down until the count before it provably clears. Every count
// between n and it is proven "not yet" by the one check at n.
func (s *stopScreen) skipTo(resid float64, n int) int {
	k := 2 * s.logTerm * resid / (s.cleared * s.cleared)
	if !(k > float64(n)*float64(n+1)) {
		return n + 1 // the spread term alone does not clear at n+1
	}
	next := maxSkip
	if m := (1 + math.Sqrt(1+4*k)) / 2; m < maxSkip {
		next = max(int(m), n+1)
	}
	for next > n+1 && !s.spreadClears(resid, next-1) {
		next--
	}
	return next
}

// spreadClears reports whether the spread term at m samples, over a residual
// sum of squares of resid, clears the target with the screen's margin.
func (s *stopScreen) spreadClears(resid float64, m int) bool {
	mf := float64(m)
	return 2*s.logTerm*resid/((mf-1)*mf) > s.cleared*s.cleared
}
