package breakpoint

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync/atomic"

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

	// limit is the most breakpoints a pass may place before it gives
	// up. A search lowers it while a speculative pass runs, and 0, which
	// every count passes, cancels that pass.
	limit atomic.Int64
	// cuts is how many breakpoints the last pass placed before it
	// closed the set at the domain's end.
	cuts int

	// Set by run for the pass in progress.
	threshold float64
	baseline  bool
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
		times:  make([]float64, 0, minTimes),
	}
}

// minTimes is the room a sweep's breakpoints start with: every pass that
// runs to its end places at least the domain's start and end.
const minTimes = 2

// build2 runs one max-rule pass at eps, Build2Baseline's when baseline
// is set and Build2's otherwise. A pass that places more than limit
// breakpoints is abandoned and returns a nil set: a search that
// already holds a closer set only needs to know that this ε is too
// small.
func (sw *sweep) build2(eps float64, baseline bool, limit int) (*Set, error) {
	sw.limit.Store(int64(limit))
	if ok, err := sw.run(eps, baseline); !ok {
		return nil, err
	}
	return sw.set(eps), nil
}

// set returns the breakpoints the last pass, at eps, placed.
func (sw *sweep) set(eps float64) *Set {
	return &Set{Times: slices.Clone(sw.times), Epsilon: eps, M: sw.mass}
}

// run is build2's pass, which leaves its breakpoints in sw.times. It
// reports false when it gives up, as soon as more than sw.limit
// breakpoints stand at a cut or at a check every few thousand
// segments.
func (sw *sweep) run(eps float64, baseline bool) (bool, error) {
	if eps <= 0 {
		return false, fmt.Errorf("breakpoint: eps must be positive, got %g", eps)
	}
	sw.threshold = eps * sw.mass
	if sw.threshold <= 0 {
		return false, fmt.Errorf("breakpoint: zero-mass dataset")
	}
	sw.baseline = baseline
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
		if i%checkEvery == 0 && sw.overLimit() {
			return false, nil
		}
		ref := &sw.flat[i]
		if !sw.fireBefore(ref.Segment.T1) {
			return false, nil
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
		st.acc += ref.Segment.AbsIntegralOver(max(sw.lastBP, ref.Segment.T1), ref.Segment.T2)
		st.cur = ref.Segment
		st.hasCur = true
		if st.acc >= sw.threshold {
			sw.refresh(int(ref.Series))
		}
	}
	if !sw.fireBefore(math.Inf(1)) {
		return false, nil
	}

	sw.cuts = len(sw.times)
	if last := sw.times[len(sw.times)-1]; last < sw.end {
		sw.times = append(sw.times, sw.end)
	}
	return true, nil
}

// checkEvery is how many segments a pass folds between checks of its
// limit, so that a cancelled pass stops soon even while it places no
// breakpoint.
const checkEvery = 4096

// overLimit reports whether more breakpoints stand than the pass may
// place.
func (sw *sweep) overLimit() bool {
	return int64(len(sw.times)) > sw.limit.Load()
}

// crossing re-bases object i's acc to lastBP and returns the time at
// which it reaches the threshold within its current segment, or +Inf
// if it does not.
//
// The crossing lies in [from, cur.T2], from = max(lastBP, cur.T1), and
// ∫|g| over that span, rest, is the one integral it needs: the re-based
// acc (AbsIntegralOver(lastBP, T2) clamps to the same from), the part
// of acc that precedes from, and the solver's check and one-signed
// piece all read it. crossing evaluates it once and hands it to
// SolveAbsIntegralForwardWith, which returns what
// SolveAbsIntegralForward would, bit for bit.
func (sw *sweep) crossing(i int) float64 {
	st := &sw.states[i]
	if !st.hasCur {
		return math.Inf(1)
	}
	from := max(sw.lastBP, st.cur.T1)
	var rest float64
	rebased := st.resetAt < sw.lastBP
	if rebased {
		// Drop the part of acc that precedes the current breakpoint.
		// Only the current segment can straddle lastBP (any earlier
		// segment of this object ended before some segment started
		// at or before lastBP).
		rest = st.cur.AbsIntegralOver(from, st.cur.T2)
		st.acc = rest
		st.resetAt = sw.lastBP
	}
	if st.acc < sw.threshold {
		return math.Inf(1)
	}
	// already is the part of acc that precedes from: exactly 0 right
	// after a re-base, where acc is rest itself.
	already := 0.0
	if !rebased {
		rest = st.cur.AbsIntegralOver(from, st.cur.T2)
		already = st.acc - rest
	}
	t, ok := st.cur.SolveAbsIntegralForwardWith(from, sw.threshold-already, rest)
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
			sw.rekey(max(until, h))
			continue
		}
		if !sw.emit(t) {
			// The breakpoint did not move: re-key the firing object
			// alone, which may cross again within its segment.
			sw.refresh(obj)
			continue
		}
		if sw.overLimit() {
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
//
// With more than one core (runtime.GOMAXPROCS), the search runs, beside
// each probe, the probe it expects to take next, on a second copy of
// the pass's scratch; see Build2WithTargetRs. The probe sequence, and
// so the set returned, is the same on any number of cores.
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
//
// With more than one core, each probe the search runs on the calling
// goroutine has a speculative probe beside it, on a goroutine of the
// search's own: the child of the bisection that the probe's outcome
// is expected to pick. The guess assumes R·ε stays about constant
// (R = R'·ε'/ε for the latest probe that ran to its end at ε', R'),
// and before any probe has, that R > r. A probe whose guess held is
// taken over once its parent resolves, its limit lowered to the one
// the search would have passed it, and a result with more breakpoints
// than that counts as abandoned, just as the probe run in turn would
// have ended: the limit only ever shrinks. A probe whose guess failed
// is cancelled and its result never looked at. So every probe the
// search acts on is one it would have run on one core, with the same
// outcome. No goroutine of the search outlives the call.
func Build2WithTargetRs(ds *tsdata.Dataset, rs []int, lazy bool) ([]*Set, error) {
	return build2WithTargetRs(ds, rs, lazy, nil)
}

// build2WithTargetRs is Build2WithTargetRs with the speculation's guess
// replaced by guess when it is not nil; tests use it to make every
// guess right or wrong.
func build2WithTargetRs(ds *tsdata.Dataset, rs []int, lazy bool, guess func(eps float64, r int) bool) ([]*Set, error) {
	for _, r := range rs {
		if r < 2 {
			return nil, fmt.Errorf("breakpoint: target r must be >= 2, got %d", r)
		}
	}
	sr := search{sw: newSweep(ds), baseline: !lazy, guess: guess}
	if runtime.GOMAXPROCS(0) > 1 {
		sr.spec = startSpeculating(sr.sw, sr.baseline)
		defer sr.spec.stop()
	}
	sets := make([]*Set, len(rs))
	for i, r := range rs {
		s, err := sr.searchR(r)
		if err != nil {
			return nil, err
		}
		sets[i] = s
	}
	return sets, nil
}

// search is the ε search behind Build2WithTargetRs.
type search struct {
	sw       *sweep // where the search runs its probes
	baseline bool
	guess    func(eps float64, r int) bool
	spec     *speculator // nil on one core

	// The latest probe that ran to its end, which the guess extrapolates
	// from; lastR is 0 before there is one.
	lastEps float64
	lastR   int
}

// speculator runs a search's speculative probes on a goroutine of its
// own, one at a time, on a second sweep that shares the search's
// segments.
type speculator struct {
	sw       *sweep
	baseline bool
	probes   chan float64  // the ε of each probe to run
	results  chan outcome  // each probe's outcome
	exited   chan struct{} // closed once the goroutine ends
	// pending is the ε of the probe in flight, 0 for none.
	pending float64
}

// startSpeculating sets up a second sweep beside sw and starts the
// goroutine that runs speculative probes on it.
func startSpeculating(sw *sweep, baseline bool) *speculator {
	sp := &speculator{
		sw: &sweep{
			flat:   sw.flat,
			start:  sw.start,
			end:    sw.end,
			mass:   sw.mass,
			states: make([]objState, len(sw.states)),
			keys:   make([]float64, len(sw.keys)),
			live:   make([]int32, 0, cap(sw.live)),
			times:  make([]float64, 0, minTimes),
		},
		baseline: baseline,
		probes:   make(chan float64),
		results:  make(chan outcome, 1),
		exited:   make(chan struct{}),
	}
	go sp.loop()
	return sp
}

// outcome is what a speculative probe's pass returned.
type outcome struct {
	ok  bool // it ran to its end
	err error
}

func (sp *speculator) loop() {
	defer close(sp.exited)
	for eps := range sp.probes {
		ok, err := sp.sw.run(eps, sp.baseline)
		sp.results <- outcome{ok, err}
	}
}

// start runs the probe at eps under limit. Under a finite limit the
// sweep's breakpoints get room for all the pass can place first, so
// that how far a probe gets before it is cancelled or its limit
// lowered does not change what it allocates.
func (sp *speculator) start(eps float64, limit int) {
	if limit < math.MaxInt && cap(sp.sw.times) < limit+1 {
		sp.sw.times = make([]float64, 0, limit+1)
	}
	sp.sw.limit.Store(int64(limit))
	sp.probes <- eps
	sp.pending = eps
}

// take waits for the probe in flight, after lowering its limit to
// limit, and returns its set, nil when it is abandoned: it placed more
// than limit breakpoints before the domain's end, under this limit or
// the higher one it started with.
func (sp *speculator) take(eps float64, limit int) (*Set, error) {
	sp.sw.limit.Store(int64(limit))
	o := <-sp.results
	sp.pending = 0
	if !o.ok || sp.sw.cuts > limit {
		return nil, o.err
	}
	return sp.sw.set(eps), nil
}

// cancel stops the probe in flight, if any, and waits for the goroutine
// to let go of the sweep: a cancelled pass stops at its next cut or
// within checkEvery segments.
func (sp *speculator) cancel() {
	if sp.pending == 0 {
		return
	}
	sp.sw.limit.Store(0)
	<-sp.results
	sp.pending = 0
}

// stop cancels any probe in flight and waits for the goroutine to end.
func (sp *speculator) stop() {
	sp.cancel()
	close(sp.probes)
	<-sp.exited
}

// expectAbove reports whether the probe at eps is expected to place
// more than r breakpoints, or to be abandoned, which the search takes
// the same way.
func (sr *search) expectAbove(eps float64, r int) bool {
	if sr.guess != nil {
		return sr.guess(eps, r)
	}
	return sr.lastR == 0 || float64(sr.lastR)*sr.lastEps/eps > float64(r)
}

// probe runs the search's probe at eps under limit and returns its set,
// nil when it is abandoned. nextAbove is the bisection's next ε if
// this probe places more than r breakpoints, nextBelow the one if it
// places fewer. With more than one core, the one the guess picks runs
// beside this probe unless last is set, and a speculative probe
// already running at eps is taken over instead of run again.
func (sr *search) probe(eps float64, limit, r int, nextAbove, nextBelow float64, last bool) (*Set, error) {
	sp := sr.spec
	if sp == nil {
		return sr.sw.build2(eps, sr.baseline, limit)
	}
	if sp.pending == eps {
		return sp.take(eps, limit)
	}
	sp.cancel()
	if !last {
		next := nextBelow
		if sr.expectAbove(eps, r) {
			next = nextAbove
		}
		sp.start(next, limit)
	}
	return sr.sw.build2(eps, sr.baseline, limit)
}

// searchR is the bisection behind Build2WithTargetR.
func (sr *search) searchR(r int) (*Set, error) {
	if sr.spec != nil {
		// A probe left over from the previous budget's search ran
		// under that search's limit, not this one's.
		sr.spec.cancel()
	}
	const iters = 40
	lo, hi := 1e-12, 1.0 // ε range; smaller ε -> more breakpoints
	var best *Set
	for iter := 0; iter < iters; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over magnitudes
		// Once a best is in hand, a probe that passes r by more than
		// best misses it can only end as "R > r, not best".
		limit := math.MaxInt
		if best != nil {
			limit = r + absInt(best.R()-r)
		}
		s, err := sr.probe(mid, limit, r, math.Sqrt(mid*hi), math.Sqrt(lo*mid), iter+1 == iters)
		if err != nil {
			return nil, err
		}
		if s == nil {
			lo = mid
			continue
		}
		sr.lastEps, sr.lastR = mid, s.R()
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
			j := ser.SegmentAt(max(last, ser.Start()))
			for ; j < ser.NumSegments(); j++ {
				seg := ser.Segment(j)
				from := max(last, seg.T1)
				if from >= seg.T2 {
					continue
				}
				area := seg.AbsIntegralOver(from, seg.T2)
				if acc+area >= threshold {
					t, ok := seg.SolveAbsIntegralForwardWith(from, threshold-acc, area)
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
