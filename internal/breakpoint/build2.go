package breakpoint

import (
	"fmt"
	"math"
	"slices"
	"sort"

	"temporalrank/internal/tsdata"
)

// Build2Baseline constructs BREAKPOINTS2 with the per-object max rule:
// a breakpoint is placed whenever some object accumulates εM of
// |aggregate| since the previous breakpoint. This is the paper's
// baseline (BREAKPOINTS2-B): after each cut, every object's running
// integral and next crossing are recomputed, costing O(rm) on top of
// the O(N log N) sweep.
func Build2Baseline(ds *tsdata.Dataset, eps float64) (*Set, error) {
	return newSweep(ds).build2(eps, true, math.MaxInt)
}

// Build2 constructs BREAKPOINTS2 (BREAKPOINTS2-E): identical output to
// Build2Baseline, without recomputing every object at each cut. A cut
// only moves crossings later, so a crossing computed before it is a
// lower bound on the new one, and is recomputed only once it could
// come due (the paper's lazy refinement).
//
// The crossings live in a flat array, not a heap, and every one below
// a horizon is exact. When the least crossing lies at or past the
// horizon, one pass over the objects that have a crossing recomputes
// those below a new horizon: first 1.25 times the previous gap between
// cuts past the last cut, then twice as far from it each time. In the
// ε search for r = 150 on Temp, Meme and RandomWalk data at 1,000 and
// 8,000 objects × 100 segments, that takes one pass per cut and
// recomputes 1.0–1.15 times as many crossings as a lazy heap does
// (72–86 % of the objects per cut on Temp, 1–2 % on Meme, 8–22 % on
// RandomWalk), without the heap's pop and push per crossing.
func Build2(ds *tsdata.Dataset, eps float64) (*Set, error) {
	return newSweep(ds).build2(eps, false, math.MaxInt)
}

// objState tracks one object during the sweep.
type objState struct {
	cur     tsdata.Segment // last segment popped for this object
	hasCur  bool
	acc     float64 // |σ_i|(lastReset_i, cur.T2): integral of processed data since this object's last accounted reset
	resetAt float64 // the breakpoint time acc is measured from
	keyedAt float64 // the breakpoint time the object's key was computed under
}

// sweep is one dataset prepared for BREAKPOINTS2: its segments in
// FlatSegments order, which every pass reads and none changes, and the
// scratch a pass works in, so that a search over ε sorts once and
// allocates once however many passes it makes.
type sweep struct {
	flat       []tsdata.SegmentRef
	start, end float64
	mass       float64 // the dataset's M

	states []objState
	// keys holds each object's next crossing, +Inf for none. A key
	// below horizon is exact under lastBP; one at or past it may have
	// been computed under an earlier breakpoint, and is then a lower
	// bound on the exact one. keys[len(states)] is a sentinel that
	// stays +Inf, minObj when no object has a crossing.
	keys []float64
	// live lists the objects whose key is finite, in no set order, so
	// that a pass over the keys skips the objects that are not due to
	// cross at all.
	live  []int32
	times []float64

	// Set by build2 for the pass in progress.
	threshold float64
	baseline  bool
	limit     int
	lastBP    float64
	horizon   float64 // +Inf before the first cut and in Build2Baseline, whose keys are all exact
	minObj    int     // an object whose key is the least, or the sentinel
}

func newSweep(ds *tsdata.Dataset) *sweep {
	return &sweep{
		flat:   ds.FlatSegments(),
		start:  ds.Start(),
		end:    ds.End(),
		mass:   ds.M(),
		states: make([]objState, ds.NumSeries()),
		keys:   make([]float64, ds.NumSeries()+1),
		live:   make([]int32, 0, ds.NumSeries()),
	}
}

// build2 runs one max-rule pass at eps, Build2Baseline's when baseline
// is set and Build2's otherwise. A pass that places more than limit
// breakpoints is abandoned and returns a nil set: a search that
// already holds a closer set only needs to know that this ε is too
// small.
func (sw *sweep) build2(eps float64, baseline bool, limit int) (*Set, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("breakpoint: eps must be positive, got %g", eps)
	}
	sw.threshold = eps * sw.mass
	if sw.threshold <= 0 {
		return nil, fmt.Errorf("breakpoint: zero-mass dataset")
	}
	sw.baseline, sw.limit = baseline, limit
	for i := range sw.keys {
		sw.keys[i] = math.Inf(1)
	}
	for i := range sw.states {
		sw.states[i] = objState{resetAt: sw.start}
	}
	sw.live = sw.live[:0]
	sw.minObj = len(sw.states)
	sw.lastBP = sw.start
	sw.horizon = math.Inf(1)
	sw.times = append(sw.times[:0], sw.start)

	for i := range sw.flat {
		ref := &sw.flat[i]
		if !sw.fireBefore(ref.Segment.T1) {
			return nil, nil
		}
		st := &sw.states[ref.Series]
		// Fold the new segment into the object's accumulator.
		if st.resetAt < sw.lastBP {
			if st.hasCur {
				st.acc = st.cur.AbsIntegralOver(sw.lastBP, st.cur.T2)
			} else {
				st.acc = 0
			}
			st.resetAt = sw.lastBP
		}
		st.acc += ref.Segment.AbsIntegralOver(math.Max(sw.lastBP, ref.Segment.T1), ref.Segment.T2)
		st.cur = ref.Segment
		st.hasCur = true
		if st.acc >= sw.threshold {
			sw.refresh(int(ref.Series))
		}
	}
	if !sw.fireBefore(math.Inf(1)) {
		return nil, nil
	}

	if last := sw.times[len(sw.times)-1]; last < sw.end {
		sw.times = append(sw.times, sw.end)
	}
	return &Set{Times: slices.Clone(sw.times), Epsilon: eps, M: sw.mass}, nil
}

// crossing re-bases object i's acc to lastBP and returns the time at
// which it reaches the threshold within its current segment, or +Inf
// if it does not.
func (sw *sweep) crossing(i int) float64 {
	st := &sw.states[i]
	if !st.hasCur {
		return math.Inf(1)
	}
	// The crossing lies within the current segment's processed span.
	from := math.Max(sw.lastBP, st.cur.T1)
	rebased := st.resetAt < sw.lastBP
	if rebased {
		// Drop the part of acc that precedes the current breakpoint.
		// Only the current segment can straddle lastBP (any earlier
		// segment of this object ended before some segment started
		// at or before lastBP).
		st.acc = st.cur.AbsIntegralOver(sw.lastBP, st.cur.T2)
		st.resetAt = sw.lastBP
	}
	if st.acc < sw.threshold {
		return math.Inf(1)
	}
	// already is the part of acc that precedes from. Right after a
	// re-base on lastBP == from, acc is the very integral subtracted
	// here, so already is exactly 0.
	already := 0.0
	if !rebased || from != sw.lastBP {
		already = st.acc - st.cur.AbsIntegralOver(from, st.cur.T2)
	}
	t, ok := st.cur.SolveAbsIntegralForward(from, sw.threshold-already)
	if !ok {
		return math.Inf(1)
	}
	return t
}

// refresh recomputes object i's key under the current breakpoint,
// re-basing its acc to lastBP. If it has no crossing, a key it already
// holds stands.
func (sw *sweep) refresh(i int) {
	t := sw.crossing(i)
	if math.IsInf(t, 1) {
		return
	}
	old := sw.keys[i]
	if math.IsInf(old, 1) {
		sw.live = append(sw.live, int32(i))
	}
	sw.keys[i] = t
	sw.states[i].keyedAt = sw.lastBP
	switch {
	case i == sw.minObj:
		if t > old {
			sw.rescanMin()
		}
	case t < sw.keys[sw.minObj]:
		sw.minObj = i
	}
}

// rescanMin points minObj at a least key.
func (sw *sweep) rescanMin() {
	m := len(sw.states)
	for _, i := range sw.live {
		if sw.keys[i] < sw.keys[m] {
			m = int(i)
		}
	}
	sw.minObj = m
}

// rekey recomputes every key in [sw.horizon, h) not computed under
// lastBP already, makes h the horizon, and points minObj at the least
// key, all in one pass.
func (sw *sweep) rekey(h float64) {
	m := len(sw.states)
	live := sw.live[:0] // compacted in place
	for _, i := range sw.live {
		t := sw.keys[i]
		if t >= sw.horizon && t < h && sw.states[i].keyedAt < sw.lastBP {
			t = sw.crossing(int(i))
			sw.keys[i] = t
			sw.states[i].keyedAt = sw.lastBP
			if math.IsInf(t, 1) {
				continue
			}
		}
		live = append(live, i)
		if t < sw.keys[m] {
			m = int(i)
		}
	}
	sw.live = live
	sw.horizon = h
	sw.minObj = m
}

// emit places a breakpoint at bp. Build2Baseline recomputes every
// object under it; Build2 lowers the horizon to it, which turns every
// key into a lower bound. emit reports false, and changes nothing,
// when bp does not lie past the last breakpoint.
func (sw *sweep) emit(bp float64) bool {
	if bp <= sw.times[len(sw.times)-1] {
		return false // numeric noise; never move backwards
	}
	sw.times = append(sw.times, bp)
	sw.lastBP = bp
	if !sw.baseline {
		sw.horizon = bp
		return true
	}
	sw.live = sw.live[:0]
	for i := range sw.states {
		t := sw.crossing(i)
		sw.keys[i] = t
		if !math.IsInf(t, 1) {
			sw.live = append(sw.live, int32(i))
		}
	}
	sw.rescanMin()
	return true
}

// fireBefore emits every crossing that occurs strictly before until,
// and reports false once more than limit breakpoints stand.
func (sw *sweep) fireBefore(until float64) bool {
	for {
		obj := sw.minObj
		t := sw.keys[obj]
		if t >= until {
			return true // every key is at least t, and a lower bound
		}
		if t >= sw.horizon {
			// The least key may be stale: recompute every key that can
			// come due before until. The first pass after a cut
			// re-keys up to 1.25 times the previous gap between cuts
			// past the last one, where the next cut almost always
			// falls; each later pass doubles the horizon's distance
			// from the last cut.
			h := sw.lastBP + 2*(sw.horizon-sw.lastBP)
			if sw.horizon == sw.lastBP {
				h = sw.lastBP + 1.25*(sw.lastBP-sw.times[len(sw.times)-2])
			}
			sw.rekey(math.Max(until, h))
			continue
		}
		if !sw.emit(t) {
			// The breakpoint did not move: re-key the firing object
			// alone, which may cross again within its segment.
			sw.refresh(obj)
			continue
		}
		if len(sw.times) > sw.limit {
			return false
		}
	}
}

// Build2WithTargetR searches for the ε at which BREAKPOINTS2 yields r
// breakpoints, and returns the set built at it: exactly r breakpoints
// when some probe of a 40-step geometric bisection of ε over
// [1e-12, 1] hits r, the probe that came closest otherwise. This is
// how the §5 experiments compare B1 and B2 "given the same budget r":
// BREAKPOINTS1 fixes r = 1/ε+1, while BREAKPOINTS2's r depends on the
// data, so the effective ε achieving a budget must be searched.
//
// lazy picks the pass every probe runs: Build2's, which refines pending
// crossings lazily, when true, and Build2Baseline's, which recomputes
// every object at each cut, otherwise. Both place the same
// breakpoints, so lazy changes only how long the search takes.
func Build2WithTargetR(ds *tsdata.Dataset, r int, lazy bool) (*Set, error) {
	sets, err := Build2WithTargetRs(ds, []int{r}, lazy)
	if err != nil {
		return nil, err
	}
	return sets[0], nil
}

// Build2WithTargetRs is Build2WithTargetR for several budgets over one
// dataset: sets[i] is what Build2WithTargetR(ds, rs[i], lazy) returns,
// and the segments are put in time order once for all of them.
func Build2WithTargetRs(ds *tsdata.Dataset, rs []int, lazy bool) ([]*Set, error) {
	for _, r := range rs {
		if r < 2 {
			return nil, fmt.Errorf("breakpoint: target r must be >= 2, got %d", r)
		}
	}
	sw := newSweep(ds)
	sets := make([]*Set, len(rs))
	for i, r := range rs {
		s, err := sw.searchR(r, lazy)
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	return sets, nil
}

// searchR is the bisection behind Build2WithTargetR.
func (sw *sweep) searchR(r int, lazy bool) (*Set, error) {
	lo, hi := 1e-12, 1.0 // ε range; smaller ε -> more breakpoints
	var best *Set
	for iter := 0; iter < 40; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over magnitudes
		// Once a best is in hand, a probe that passes r by more than
		// best misses it can only end as "R > r, not best".
		limit := math.MaxInt
		if best != nil {
			limit = r + absInt(best.R()-r)
		}
		s, err := sw.build2(mid, !lazy, limit)
		if err != nil {
			return nil, err
		}
		if s == nil {
			lo = mid
			continue
		}
		if best == nil || absInt(s.R()-r) < absInt(best.R()-r) {
			best = s
		}
		switch {
		case s.R() == r:
			return s, nil
		case s.R() > r:
			lo = mid
		default:
			hi = mid
		}
	}
	return best, nil
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Extend repairs a breakpoint set after appends: every breakpoint at
// or after firstNew (the earliest left endpoint of any appended
// segment) is discarded and the max-rule sweep is re-run from the last
// surviving breakpoint to the new end of the data, keeping the set's
// original threshold tau = epsilon*M_build fixed - the paragraph-4 update scheme:
// "always constructing breakpoints (and the index structures on top of
// them) using a fixed value of tau, and when M doubles, we rebuild".
// Gaps before firstNew received no new mass, so Lemma 2 keeps holding
// for them; re-emitted gaps satisfy it by construction.
func (s *Set) Extend(ds *tsdata.Dataset, firstNew float64) error {
	threshold := s.Epsilon * s.M // fixed tau from build time
	if threshold <= 0 {
		return fmt.Errorf("breakpoint: set has no threshold")
	}
	// Keep breakpoints strictly before firstNew (always keep b0).
	keep := sort.SearchFloat64s(s.Times, firstNew)
	if keep < 1 {
		keep = 1
	}
	s.Times = s.Times[:keep]
	last := s.Times[keep-1]
	if ds.End() <= last {
		return nil
	}
	// Repeatedly emit the earliest crossing of tau after `last` across
	// all objects. O(m * tail) per emitted breakpoint; adequate for the
	// incremental-update path (full rebuilds use Build2).
	for {
		next := math.Inf(1)
		for _, ser := range ds.AllSeries() {
			if ser.End() <= last {
				continue
			}
			acc := 0.0
			j := ser.SegmentAt(math.Max(last, ser.Start()))
			for ; j < ser.NumSegments(); j++ {
				seg := ser.Segment(j)
				from := math.Max(last, seg.T1)
				if from >= seg.T2 {
					continue
				}
				area := seg.AbsIntegralOver(from, seg.T2)
				if acc+area >= threshold {
					t, ok := seg.SolveAbsIntegralForward(from, threshold-acc)
					if ok && t < next {
						next = t
					}
					break
				}
				acc += area
			}
		}
		if math.IsInf(next, 1) {
			break
		}
		if next <= last {
			return fmt.Errorf("breakpoint: extend stalled at %g", next)
		}
		s.Times = append(s.Times, next)
		last = next
	}
	if last < ds.End() {
		s.Times = append(s.Times, ds.End())
	}
	return nil
}
