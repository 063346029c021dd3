// Package tsdata defines the temporal data model used throughout the
// library: objects represented as piecewise-linear score functions, the
// trapezoid integration primitive (Eq. 1 of the paper), and prefix-sum
// decomposition (Eq. 2). All methods in internal/exact and
// internal/approx are built on these primitives.
//
// An object o_i is a function g_i: [t_{i,0}, t_{i,n_i}] -> R given by n_i
// linear segments. Outside its domain an object scores 0. Time and score
// are float64; aggregate scores are exact integrals of the piecewise
// linear function (no numeric quadrature involved).
package tsdata

import (
	"fmt"
	"math"
)

// SeriesID identifies an object (a temporal series) within a Dataset.
// IDs are dense: 0..m-1.
type SeriesID int32

// Segment is one linear piece of an object's score function: the line
// from (T1, V1) to (T2, V2) with T1 < T2.
type Segment struct {
	T1, T2 float64 // time span, T1 < T2
	V1, V2 float64 // scores at T1 and T2
}

// Slope returns the segment's slope (V2-V1)/(T2-T1).
func (s Segment) Slope() float64 { return (s.V2 - s.V1) / (s.T2 - s.T1) }

// At evaluates the segment's line at time t. t should lie in [T1, T2];
// values outside are linear extrapolations (used internally when solving
// for threshold crossings).
func (s Segment) At(t float64) float64 {
	// Interpolate in a numerically stable form: exact at both endpoints.
	w := (t - s.T1) / (s.T2 - s.T1)
	return s.V1*(1-w) + s.V2*w
}

// Duration returns T2-T1.
func (s Segment) Duration() float64 { return s.T2 - s.T1 }

// Integral returns the full integral of the segment over [T1, T2]: the
// (signed) trapezoid area.
func (s Segment) Integral() float64 {
	return 0.5 * (s.T2 - s.T1) * (s.V1 + s.V2)
}

// IntegralOver returns the integral of the segment's line over
// [t1,t2] ∩ [T1,T2], i.e. σ_i(I) of Eq. (1): zero when the ranges are
// disjoint, otherwise the area of the trapezoid between tL=max(t1,T1)
// and tR=min(t2,T2).
func (s Segment) IntegralOver(t1, t2 float64) float64 {
	tL := max(t1, s.T1)
	tR := min(t2, s.T2)
	if tR <= tL {
		return 0
	}
	return 0.5 * (tR - tL) * (s.At(tL) + s.At(tR))
}

// IntegralFrom returns the integral over [t, T2] for t already known
// to lie in [T1, T2]: IntegralOver(t, T2) without the clamping
// min/max, bit-identical to it on that domain (At(T2) evaluates to
// exactly V2). The stab visitors call this once per object per query.
func (s Segment) IntegralFrom(t float64) float64 {
	if s.T2 <= t {
		return 0
	}
	return 0.5 * (s.T2 - t) * (s.At(t) + s.V2)
}

// AbsIntegral returns the integral of |g| over the segment's own span.
// Used when scores may be negative: breakpoint construction (§4 of the
// paper) replaces σ by ∫|g| when defining M and thresholds.
func (s Segment) AbsIntegral() float64 {
	return s.AbsIntegralOver(s.T1, s.T2)
}

// AbsIntegralOver returns ∫ |g(t)| dt over [t1,t2] ∩ [T1,T2]. If the
// line crosses zero inside the clipped range the two sub-trapezoids are
// accumulated separately.
func (s Segment) AbsIntegralOver(t1, t2 float64) float64 {
	tL := max(t1, s.T1)
	tR := min(t2, s.T2)
	if tR <= tL {
		return 0
	}
	vL, vR := s.At(tL), s.At(tR)
	if vL >= 0 && vR >= 0 {
		return 0.5 * (tR - tL) * (vL + vR)
	}
	if vL <= 0 && vR <= 0 {
		return -0.5 * (tR - tL) * (vL + vR)
	}
	// One sign change: find the zero crossing tz on the line.
	tz := tL + (tR-tL)*vL/(vL-vR)
	left := 0.5 * (tz - tL) * vL
	right := 0.5 * (tR - tz) * vR
	return math.Abs(left) + math.Abs(right)
}

// Validate reports whether the segment is well formed: finite endpoints
// and strictly increasing time span.
func (s Segment) Validate() error {
	for _, v := range [...]float64{s.T1, s.T2, s.V1, s.V2} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("tsdata: segment %+v has non-finite field", s)
		}
	}
	if s.T2 <= s.T1 {
		return fmt.Errorf("tsdata: segment %+v has non-positive duration", s)
	}
	return nil
}

// String implements fmt.Stringer.
func (s Segment) String() string {
	return fmt.Sprintf("[(%g,%g)->(%g,%g)]", s.T1, s.V1, s.T2, s.V2)
}

// SolveIntegralForward returns the earliest time t in (from, s.T2] such
// that ∫_{from}^{t} g = target, or (0,false) if the integral over
// (from, s.T2] never reaches target. Requires from in [T1,T2) and
// target > 0; used to locate breakpoints mid-segment (§3.1).
//
// With v = g(from) and slope w, the running integral is
// I(t) = w/2·(t-from)² + v·(t-from); we solve I(t)=target for the
// smallest positive root.
func (s Segment) SolveIntegralForward(from, target float64) (float64, bool) {
	if target <= 0 {
		return from, true
	}
	total := s.IntegralOver(from, s.T2)
	if total < target {
		return 0, false
	}
	v := s.At(from)
	w := s.Slope()
	dt, ok := solveQuadIntegral(v, w, target, s.T2-from)
	if !ok {
		return 0, false
	}
	return from + dt, true
}

// SolveAbsIntegralForward returns the earliest time t in (from, s.T2]
// such that ∫_{from}^{t} |g| = target, or (0,false) if unreachable
// within the segment. This is the threshold-crossing primitive of
// breakpoint construction under the §4 negative-score extension (the
// paper replaces σ by ∫|g| when defining M and thresholds). It is
// SolveAbsIntegralForwardWith given AbsIntegralOver(from, s.T2).
func (s Segment) SolveAbsIntegralForward(from, target float64) (float64, bool) {
	if target <= 0 {
		return from, true
	}
	return s.SolveAbsIntegralForwardWith(from, target, s.AbsIntegralOver(from, s.T2))
}

// SolveAbsIntegralForwardWith is SolveAbsIntegralForward for a caller
// that already holds rest = AbsIntegralOver(from, s.T2), the integral
// the solver checks target against and, when the line does not cross
// zero inside (from, T2), the area of the one piece it solves in. With
// that value it returns the same bits, and evaluates no integral over
// [from, T2] again.
func (s Segment) SolveAbsIntegralForwardWith(from, target, rest float64) (float64, bool) {
	if target <= 0 {
		return from, true
	}
	if rest*(1+1e-12) < target {
		return 0, false
	}
	// Split [from, T2] at the segment's zero crossing (computed from the
	// full span, so a `from` sitting on the crossing cannot stall), and
	// solve in the first one-signed piece that reaches target.
	a, b, area := from, s.T2, rest
	if (s.V1 < 0) != (s.V2 < 0) && s.V1 != s.V2 {
		tz := s.T1 + (s.T2-s.T1)*s.V1/(s.V1-s.V2)
		if tz > from && tz < s.T2 {
			area = s.AbsIntegralOver(from, tz)
			if target > area {
				target -= area
				a, area = tz, s.AbsIntegralOver(tz, s.T2)
			} else {
				b = tz
			}
		}
	}
	// Solve within [a, b]: |g| has value |g(a)| and slope ±w according
	// to the piece's sign.
	sign := 1.0
	if s.At((a+b)/2) < 0 {
		sign = -1
	}
	v0 := sign * s.At(a)
	if v0 < 0 {
		v0 = 0 // rounding noise at the crossing
	}
	if target > area {
		target = area // clamp rounding noise on the last piece
	}
	dt, ok := solveQuadIntegral(v0, sign*s.Slope(), target, b-a)
	if !ok {
		return b, true // target met at the piece boundary modulo rounding
	}
	return a + dt, true
}

// solveQuadIntegral solves w/2·x² + v·x = target for the smallest
// x in (0, maxX]. Handles the linear case w≈0 and clamps numeric noise.
func solveQuadIntegral(v, w, target, maxX float64) (float64, bool) {
	const tiny = 1e-300
	if math.Abs(w) < tiny {
		if v <= 0 {
			return 0, false
		}
		x := target / v
		if x > maxX {
			// Integral reaches target exactly at/after maxX due to
			// rounding in the caller's pre-check; clamp.
			if target <= v*maxX*(1+1e-9) {
				return maxX, true
			}
			return 0, false
		}
		return x, true
	}
	// w/2 x² + v x - target = 0 -> x = (-v ± sqrt(v² + 2w·target)) / w
	disc := v*v + 2*w*target
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	// Stable smallest-positive-root selection.
	var roots [2]float64
	roots[0] = (-v + sq) / w
	roots[1] = (-v - sq) / w
	best := math.Inf(1)
	for _, r := range roots {
		if r > 0 && r < best {
			best = r
		}
	}
	if math.IsInf(best, 1) {
		return 0, false
	}
	if best > maxX {
		if best <= maxX*(1+1e-9) {
			return maxX, true
		}
		return 0, false
	}
	return best, true
}
