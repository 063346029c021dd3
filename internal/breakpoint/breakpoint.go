// Package breakpoint implements the ε-breakpoint constructions of §3.1:
//
//   - Build1 (BREAKPOINTS1): sweep the total aggregate Σ_i σ_i and cut
//     whenever it accumulates εM, yielding exactly r = ⌈1/ε⌉+1
//     breakpoints.
//   - Build2Baseline (BREAKPOINTS2, baseline): cut whenever any single
//     object's aggregate since the last cut reaches εM; resets all m
//     running integrals and recomputes every object's next crossing
//     per cut (the O(rm + N log N) construction).
//   - Build2 (BREAKPOINTS2, efficient): same output, but after a cut an
//     object's next crossing is recomputed only once it could come
//     due. A cut only moves crossings later, so the ones computed
//     before it remain valid lower bounds (lazy refinement, standing
//     in for the unpublished bookkeeping of the technical report's
//     §9.1). The crossings sit in a flat array below a moving horizon
//     instead of a heap; see Build2.
//
// Both constructions guarantee the Lemma 2 property: for any object i
// and consecutive breakpoints b_j, b_{j+1}, σ_i(b_j, b_{j+1}) ≤ εM —
// using absolute integrals throughout so the §4 negative-score
// extension holds unchanged.
package breakpoint

import (
	"fmt"
	"math"
	"sort"

	"temporalrank/internal/tsdata"
)

// Set is an ordered set of breakpoints over the dataset's temporal
// domain, b_0 = Start < b_1 < ... < b_{r-1} = End.
type Set struct {
	Times   []float64
	Epsilon float64 // the ε the set was built with
	M       float64 // Σ_i ∫|g_i| at build time
}

// R returns r, the number of breakpoints.
func (s *Set) R() int { return len(s.Times) }

// Snap returns B(t): the smallest breakpoint ≥ t (clamped to the last
// breakpoint when t exceeds the domain) and its index.
func (s *Set) Snap(t float64) (float64, int) {
	idx := sort.SearchFloat64s(s.Times, t)
	if idx >= len(s.Times) {
		idx = len(s.Times) - 1
	}
	return s.Times[idx], idx
}

// Validate checks ordering invariants (used by tests and loaders).
func (s *Set) Validate() error {
	if len(s.Times) < 2 {
		return fmt.Errorf("breakpoint: need at least 2 breakpoints, have %d", len(s.Times))
	}
	for i := 1; i < len(s.Times); i++ {
		if !(s.Times[i] > s.Times[i-1]) {
			return fmt.Errorf("breakpoint: not strictly increasing at %d (%g, %g)", i, s.Times[i-1], s.Times[i])
		}
	}
	return nil
}

// EpsilonForR1 returns the ε that makes BREAKPOINTS1 produce about r
// breakpoints (r = 1/ε + 1).
func EpsilonForR1(r int) float64 {
	if r < 2 {
		r = 2
	}
	return 1 / float64(r-1)
}

// --- BREAKPOINTS1 ------------------------------------------------------

// sweepEvent is a change point of the total |score| function: dValue
// captures jumps (objects appearing/disappearing), dSlope captures
// slope changes (vertices and zero crossings).
type sweepEvent struct {
	t      float64
	dValue float64
	dSlope float64
}

// Build1 constructs BREAKPOINTS1 with threshold εM on the summed
// aggregate. O(N log N) time dominated by event sorting.
func Build1(ds *tsdata.Dataset, eps float64) (*Set, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("breakpoint: eps must be positive, got %g", eps)
	}
	M := ds.M()
	threshold := eps * M
	events := buildSweepEvents(ds)

	times := []float64{ds.Start()}
	var v, w float64 // V(t) = Σ|g_i(t)|, W(t) = dV/dt
	cur := ds.Start()
	acc := 0.0 // Σ_i |σ_i|(lastBP, cur)
	ei := 0
	// Process events in order; between events V is linear.
	for ei < len(events) {
		ev := events[ei]
		dt := ev.t - cur
		if dt > 0 {
			segArea := w/2*dt*dt + v*dt
			for acc+segArea >= threshold && threshold > 0 {
				// A breakpoint lands inside (cur, ev.t].
				x, ok := solveQuad(v, w, threshold-acc, dt)
				if !ok {
					break
				}
				bp := cur + x
				if bp <= times[len(times)-1] {
					// Numeric underflow: force minimal progress.
					break
				}
				times = append(times, bp)
				// Advance the sweep state to bp.
				v += w * x
				cur = bp
				dt = ev.t - cur
				segArea = w/2*dt*dt + v*dt
				acc = 0
			}
			acc += segArea
			v += w * dt
			cur = ev.t
		}
		v += ev.dValue
		w += ev.dSlope
		ei++
	}
	if last := times[len(times)-1]; last < ds.End() {
		times = append(times, ds.End())
	}
	return &Set{Times: times, Epsilon: eps, M: M}, nil
}

// buildSweepEvents emits the change points of Σ_i |g_i(t)|.
func buildSweepEvents(ds *tsdata.Dataset) []sweepEvent {
	var events []sweepEvent
	for _, s := range ds.AllSeries() {
		n := s.NumSegments()
		for j := 0; j < n; j++ {
			seg := s.Segment(j)
			w := seg.Slope()
			sL, sR := segSign(seg.V1, w), segSign(seg.V2, -w)
			// Slope of |g| entering this segment is sL*w; leaving, sR*w.
			if j == 0 {
				events = append(events, sweepEvent{t: seg.T1, dValue: math.Abs(seg.V1), dSlope: sL * w})
			} else {
				prev := s.Segment(j - 1)
				pw := prev.Slope()
				pSR := segSign(prev.V2, -pw)
				events = append(events, sweepEvent{t: seg.T1, dSlope: sL*w - pSR*pw})
			}
			// Zero crossing inside the segment flips |g|'s slope sign.
			if (seg.V1 < 0) != (seg.V2 < 0) && seg.V1 != seg.V2 {
				tz := seg.T1 + (seg.T2-seg.T1)*seg.V1/(seg.V1-seg.V2)
				if tz > seg.T1 && tz < seg.T2 {
					events = append(events, sweepEvent{t: tz, dSlope: (sR - sL) * w})
				}
			}
			if j == n-1 {
				events = append(events, sweepEvent{t: seg.T2, dValue: -math.Abs(seg.V2), dSlope: -sR * w})
			}
		}
	}
	sort.Slice(events, func(a, b int) bool { return events[a].t < events[b].t })
	return events
}

// segSign gives the sign of |g| relative to g near an endpoint with
// value v; when v == 0 the sign is taken from the direction d the
// function moves (slope into the segment for the left endpoint,
// negated slope for the right).
func segSign(v, d float64) float64 {
	if v > 0 {
		return 1
	}
	if v < 0 {
		return -1
	}
	if d >= 0 {
		return 1
	}
	return -1
}

// solveQuad solves w/2·x² + v·x = target for the smallest x in
// (0, maxX], clamping rounding noise at the boundary.
func solveQuad(v, w, target, maxX float64) (float64, bool) {
	const tiny = 1e-300
	if target <= 0 {
		return 0, false
	}
	if math.Abs(w) < tiny {
		if v <= 0 {
			return 0, false
		}
		x := target / v
		if x > maxX*(1+1e-9) {
			return 0, false
		}
		return math.Min(x, maxX), true
	}
	disc := v*v + 2*w*target
	if disc < 0 {
		return 0, false
	}
	sq := math.Sqrt(disc)
	best := math.Inf(1)
	for _, r := range [2]float64{(-v + sq) / w, (-v - sq) / w} {
		if r > 0 && r < best {
			best = r
		}
	}
	if math.IsInf(best, 1) || best > maxX*(1+1e-9) {
		return 0, false
	}
	return math.Min(best, maxX), true
}
