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
// integral is recomputed, costing O(rm) on top of the O(N log N) sweep.
func Build2Baseline(ds *tsdata.Dataset, eps float64) (*Set, error) {
	return newSweep(ds).build2(eps, false, math.MaxInt)
}

// Build2 constructs BREAKPOINTS2 with the lazy-refinement candidate
// heap (BREAKPOINTS2-E): identical output to Build2Baseline, without
// the per-cut O(m) reset.
func Build2(ds *tsdata.Dataset, eps float64) (*Set, error) {
	return newSweep(ds).build2(eps, true, math.MaxInt)
}

// objState tracks one object during the sweep.
type objState struct {
	cur     tsdata.Segment // last segment popped for this object
	hasCur  bool
	acc     float64 // |σ_i|(lastReset_i, cur.T2): integral of processed data since this object's last accounted reset
	resetAt float64 // the breakpoint time acc is measured from
	seq     int     // candidate sequence number (stale-entry detection)
}

// candidate is a heap entry: a lower bound on the time object obj next
// reaches εM of accumulated |aggregate| since the breakpoint current at
// epoch.
type candidate struct {
	t     float64
	obj   tsdata.SeriesID
	seq   int
	epoch int
}

// candHeap is a min-heap on candidate.t. push and pop make the
// comparisons container/heap's Push and Pop make and leave the array as
// its swaps would, so candidates with equal times still leave in the
// order they always have and the sweep places the same breakpoints;
// what they save is boxing every candidate into an interface{}, and
// half the writes by moving the sifted entry once rather than swapping
// it level by level.
type candHeap []candidate

func (h *candHeap) push(c candidate) {
	s := append(*h, c)
	*h = s
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2 // parent
		if !(c.t < s[i].t) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = c
}

// pop removes the minimum, (*h)[0].
func (h *candHeap) pop() {
	s := *h
	n := len(s) - 1
	c := s[n] // takes the root's place and sinks
	i := 0
	for {
		j := 2*i + 1 // left child
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && s[j2].t < s[j].t {
			j = j2
		}
		if !(s[j].t < c.t) {
			break
		}
		s[i] = s[j]
		i = j
	}
	s[i] = c
	*h = s[:n]
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
	cands  candHeap
	times  []float64

	// Set by build2 for the pass in progress.
	threshold float64
	lazy      bool
	limit     int
	epoch     int
	lastBP    float64
}

func newSweep(ds *tsdata.Dataset) *sweep {
	return &sweep{
		flat:   ds.FlatSegments(),
		start:  ds.Start(),
		end:    ds.End(),
		mass:   ds.M(),
		states: make([]objState, ds.NumSeries()),
	}
}

// build2 runs one max-rule pass at eps. A pass that places more than
// limit breakpoints is abandoned and returns a nil set: a search that
// already holds a closer set only needs to know that this ε is too
// small.
func (sw *sweep) build2(eps float64, lazy bool, limit int) (*Set, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("breakpoint: eps must be positive, got %g", eps)
	}
	sw.threshold = eps * sw.mass
	if sw.threshold <= 0 {
		return nil, fmt.Errorf("breakpoint: zero-mass dataset")
	}
	sw.lazy, sw.limit = lazy, limit
	for i := range sw.states {
		sw.states[i] = objState{resetAt: sw.start}
	}
	sw.cands = sw.cands[:0]
	sw.epoch = 0
	sw.lastBP = sw.start
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

// refresh recomputes object i's exact candidate under the current
// breakpoint and pushes it; it also re-bases acc to lastBP.
func (sw *sweep) refresh(i int) {
	st := &sw.states[i]
	if !st.hasCur {
		return
	}
	if st.resetAt < sw.lastBP {
		// Drop the part of acc that precedes the current breakpoint.
		// Only the current segment can straddle lastBP (any earlier
		// segment of this object ended before some segment started
		// at or before lastBP).
		st.acc = st.cur.AbsIntegralOver(sw.lastBP, st.cur.T2)
		st.resetAt = sw.lastBP
	}
	if st.acc < sw.threshold {
		return
	}
	// The crossing lies within the current segment's processed span.
	from := math.Max(sw.lastBP, st.cur.T1)
	already := st.acc - st.cur.AbsIntegralOver(from, st.cur.T2)
	t, ok := st.cur.SolveAbsIntegralForward(from, sw.threshold-already)
	if !ok {
		return
	}
	st.seq++
	sw.cands.push(candidate{t: t, obj: tsdata.SeriesID(i), seq: st.seq, epoch: sw.epoch})
}

// nextFire returns the exact earliest crossing among candidates,
// lazily re-keying stale entries (whose times are valid lower
// bounds, since cuts only push crossings later).
func (sw *sweep) nextFire() (candidate, bool) {
	for len(sw.cands) > 0 {
		top := sw.cands[0]
		if top.seq != sw.states[top.obj].seq {
			sw.cands.pop() // superseded
			continue
		}
		if top.epoch == sw.epoch {
			return top, true
		}
		// Stale: recompute under the current breakpoint.
		sw.cands.pop()
		sw.refresh(int(top.obj))
	}
	return candidate{}, false
}

// emit places a breakpoint at bp and resets accounting.
func (sw *sweep) emit(bp float64) {
	if bp <= sw.times[len(sw.times)-1] {
		return // numeric noise; never move backwards
	}
	sw.times = append(sw.times, bp)
	sw.lastBP = bp
	sw.epoch++
	if !sw.lazy {
		// Baseline: recompute every object immediately (O(m) per cut).
		for i := range sw.states {
			sw.states[i].seq++ // invalidate all outstanding candidates
		}
		sw.cands = sw.cands[:0]
		for i := range sw.states {
			sw.refresh(i)
		}
	}
	// Lazy mode: outstanding candidates stay as lower bounds and are
	// re-keyed on demand by nextFire.
}

// fireBefore emits every crossing that occurs strictly before until,
// and reports false once more than limit breakpoints stand.
func (sw *sweep) fireBefore(until float64) bool {
	for {
		c, ok := sw.nextFire()
		if !ok || c.t >= until {
			return true
		}
		sw.emit(c.t)
		if len(sw.times) > sw.limit {
			return false
		}
		// The firing object may cross again within its current
		// segment under the new breakpoint.
		sw.refresh(int(c.obj))
	}
}

// Build2WithTargetR searches for the ε at which BREAKPOINTS2 (Build2
// when lazy, Build2Baseline otherwise) yields r breakpoints, and
// returns the set built at it: exactly r breakpoints when some probe
// of a 40-step geometric bisection of ε over [1e-12, 1] hits r, the
// probe that came closest otherwise. This is how the §5 experiments
// compare B1 and B2 "given the same budget r": BREAKPOINTS1 fixes
// r = 1/ε+1, while BREAKPOINTS2's r depends on the data, so the
// effective ε achieving a budget must be searched.
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
		s, err := sw.build2(mid, lazy, limit)
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
