package breakpoint

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

// The reference below is the build as it stood before the search began
// sharing one sorted segment array and one scratch across its probes:
// a reflection sort and a container/heap sweep per probe, and every
// probe run to its end. The identity tests hold the shipped build to
// it bit for bit, because a different tie order in the heap or a
// different final ε is a different index.

// referenceFlat is Dataset.FlatSegments as a sort.Slice.
func referenceFlat(ds *tsdata.Dataset) []tsdata.SegmentRef {
	var out []tsdata.SegmentRef
	for _, s := range ds.AllSeries() {
		for j := 0; j < s.NumSegments(); j++ {
			out = append(out, tsdata.SegmentRef{Series: s.ID, Index: int32(j), Segment: s.Segment(j)})
		}
	}
	sort.Slice(out, func(a, b int) bool {
		sa, sb := out[a], out[b]
		if sa.Segment.T1 != sb.Segment.T1 {
			return sa.Segment.T1 < sb.Segment.T1
		}
		if sa.Series != sb.Series {
			return sa.Series < sb.Series
		}
		return sa.Index < sb.Index
	})
	return out
}

// refState is the reference's per-object state: the product's objState
// as it stood, with the candidate sequence number its heap needs.
type refState struct {
	cur     tsdata.Segment
	hasCur  bool
	acc     float64
	resetAt float64
	seq     int
}

// candidate is the reference's heap entry: a lower bound on the time
// object obj next reaches εM of accumulated |aggregate| since the
// breakpoint current at epoch.
type candidate struct {
	t     float64
	obj   tsdata.SeriesID
	seq   int
	epoch int
}

type refHeap []candidate

func (h refHeap) Len() int            { return len(h) }
func (h refHeap) Less(i, j int) bool  { return h[i].t < h[j].t }
func (h refHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x interface{}) { *h = append(*h, x.(candidate)) }
func (h *refHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

func referenceBuild2(ds *tsdata.Dataset, eps float64, lazy bool) (*Set, error) {
	if eps <= 0 {
		return nil, fmt.Errorf("breakpoint: eps must be positive, got %g", eps)
	}
	M := ds.M()
	threshold := eps * M
	if threshold <= 0 {
		return nil, fmt.Errorf("breakpoint: zero-mass dataset")
	}
	flat := referenceFlat(ds)
	m := ds.NumSeries()

	states := make([]refState, m)
	for i := range states {
		states[i].resetAt = ds.Start()
	}
	var cands refHeap
	epoch := 0
	lastBP := ds.Start()
	times := []float64{ds.Start()}

	// refresh recomputes object i's exact candidate under the current
	// breakpoint and pushes it; it also re-bases acc to lastBP.
	refresh := func(i int) {
		st := &states[i]
		if !st.hasCur {
			return
		}
		if st.resetAt < lastBP {
			// Drop the part of acc that precedes the current breakpoint.
			// Only the current segment can straddle lastBP (any earlier
			// segment of this object ended before some segment started
			// at or before lastBP).
			st.acc = st.cur.AbsIntegralOver(lastBP, st.cur.T2)
			st.resetAt = lastBP
		}
		if st.acc < threshold {
			return
		}
		// The crossing lies within the current segment's processed span.
		from := math.Max(lastBP, st.cur.T1)
		already := st.acc - st.cur.AbsIntegralOver(from, st.cur.T2)
		t, ok := st.cur.SolveAbsIntegralForward(from, threshold-already)
		if !ok {
			return
		}
		st.seq++
		heap.Push(&cands, candidate{t: t, obj: tsdata.SeriesID(i), seq: st.seq, epoch: epoch})
	}

	// nextFire returns the exact earliest crossing among candidates,
	// lazily re-keying stale entries (whose times are valid lower
	// bounds, since cuts only push crossings later).
	nextFire := func() (candidate, bool) {
		for len(cands) > 0 {
			top := cands[0]
			st := &states[top.obj]
			if top.seq != st.seq {
				heap.Pop(&cands) // superseded
				continue
			}
			if top.epoch == epoch {
				return top, true
			}
			// Stale: recompute under the current breakpoint.
			heap.Pop(&cands)
			refresh(int(top.obj))
		}
		return candidate{}, false
	}

	// emit places a breakpoint at bp and resets accounting.
	emit := func(bp float64) {
		if bp <= times[len(times)-1] {
			return // numeric noise; never move backwards
		}
		times = append(times, bp)
		lastBP = bp
		epoch++
		if !lazy {
			// Baseline: recompute every object immediately (O(m) per cut).
			for i := range states {
				states[i].seq++ // invalidate all outstanding candidates
			}
			cands = cands[:0]
			for i := range states {
				refresh(i)
			}
		}
		// Lazy mode: outstanding candidates stay as lower bounds and are
		// re-keyed on demand by nextFire.
	}

	// fireBefore emits every crossing that occurs strictly before limit.
	fireBefore := func(limit float64) {
		for {
			c, ok := nextFire()
			if !ok || c.t >= limit {
				return
			}
			emit(c.t)
			// The firing object may cross again within its current
			// segment under the new breakpoint.
			refresh(int(c.obj))
		}
	}

	for _, ref := range flat {
		fireBefore(ref.Segment.T1)
		st := &states[ref.Series]
		// Fold the new segment into the object's accumulator.
		if st.resetAt < lastBP {
			if st.hasCur {
				st.acc = st.cur.AbsIntegralOver(lastBP, st.cur.T2)
			} else {
				st.acc = 0
			}
			st.resetAt = lastBP
		}
		st.acc += ref.Segment.AbsIntegralOver(math.Max(lastBP, ref.Segment.T1), ref.Segment.T2)
		st.cur = ref.Segment
		st.hasCur = true
		if st.acc >= threshold {
			refresh(int(ref.Series))
		}
	}
	fireBefore(math.Inf(1))

	if last := times[len(times)-1]; last < ds.End() {
		times = append(times, ds.End())
	}
	return &Set{Times: times, Epsilon: eps, M: M}, nil
}

// referenceTargetR is Build2WithTargetR's search loop as it stood, a
// build per probe, except that builds come through probe: the searches
// for different r over one dataset walk in from the same bracket and
// share their first, most expensive probes, so the test builds each
// distinct ε once.
func referenceTargetR(probe func(eps float64) (*Set, error), r int) (*Set, error) {
	if r < 2 {
		return nil, fmt.Errorf("breakpoint: target r must be >= 2, got %d", r)
	}
	lo, hi := 1e-12, 1.0 // ε range; smaller ε -> more breakpoints
	var best *Set
	for iter := 0; iter < 40; iter++ {
		mid := math.Sqrt(lo * hi) // geometric bisection over magnitudes
		s, err := probe(mid)
		if err != nil {
			return nil, err
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

// referenceProbes returns referenceBuild2 over ds, remembering the set
// built at each ε.
func referenceProbes(ds *tsdata.Dataset, lazy bool) func(eps float64) (*Set, error) {
	built := make(map[float64]*Set)
	return func(eps float64) (*Set, error) {
		if s, ok := built[eps]; ok {
			return s, nil
		}
		s, err := referenceBuild2(ds, eps, lazy)
		built[eps] = s
		return s, err
	}
}

// sameSet fails the test unless got is want bit for bit.
func sameSet(t *testing.T, name string, got, want *Set) {
	t.Helper()
	if math.Float64bits(got.Epsilon) != math.Float64bits(want.Epsilon) || math.Float64bits(got.M) != math.Float64bits(want.M) {
		t.Fatalf("%s: eps=%v M=%v, reference eps=%v M=%v", name, got.Epsilon, got.M, want.Epsilon, want.M)
	}
	if len(got.Times) != len(want.Times) {
		t.Fatalf("%s: %d breakpoints, reference %d", name, len(got.Times), len(want.Times))
	}
	for i := range want.Times {
		if math.Float64bits(got.Times[i]) != math.Float64bits(want.Times[i]) {
			t.Fatalf("%s: breakpoint %d is %v, reference %v", name, i, got.Times[i], want.Times[i])
		}
	}
}

// identityDatasets are the three generators at one size: Temp (every
// series starts at 0, so the first m segments tie on T1), Meme (bursty,
// staggered lifetimes) and RandomWalk (negative scores).
func identityDatasets(t *testing.T, m int) map[string]*tsdata.Dataset {
	t.Helper()
	temp, err := gen.Temp(gen.TempConfig{M: m, Navg: 24, Seed: int64(m)})
	if err != nil {
		t.Fatal(err)
	}
	meme, err := gen.Meme(gen.MemeConfig{M: m, Navg: 24, Seed: int64(m) + 1})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: 24, Seed: int64(m) + 2})
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*tsdata.Dataset{"temp": temp, "meme": meme, "walk": walk}
}

// stairs is a dataset on which most budgets cannot be met: k objects of
// equal mass, one after another in time, so lowering ε adds a cut to
// each of them at once and R moves in steps of k. A search for an r
// between two steps runs all 40 probes, overshoots on some, and must
// come back with the same closest probe the reference keeps.
func stairs(t *testing.T, k int) *tsdata.Dataset {
	t.Helper()
	series := make([]*tsdata.Series, k)
	for i := range series {
		at := float64(2 * i)
		s, err := tsdata.NewSeries(tsdata.SeriesID(i),
			[]float64{at, at + 0.25, at + 0.5, at + 1}, []float64{1, 1, 1, 1})
		if err != nil {
			t.Fatal(err)
		}
		series[i] = s
	}
	ds, err := tsdata.NewDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// TestTargetRUnreachableBudget is the identity test where no probe
// hits r exactly, so the answer is the search's best and every
// abandoned overshoot matters.
func TestTargetRUnreachableBudget(t *testing.T) {
	ds := stairs(t, 4)
	targets := []int{3, 4, 5, 40, 41, 43, 150, 151}
	for _, lazy := range []bool{true, false} {
		probe := referenceProbes(ds, lazy)
		got, err := Build2WithTargetRs(ds, targets, lazy)
		if err != nil {
			t.Fatal(err)
		}
		missed := 0
		for i, r := range targets {
			want, err := referenceTargetR(probe, r)
			if err != nil {
				t.Fatal(err)
			}
			sameSet(t, fmt.Sprintf("r=%d lazy=%v", r, lazy), got[i], want)
			if want.R() != r {
				missed++
			}
		}
		if missed == 0 {
			t.Fatal("every budget was met exactly; the dataset no longer exercises the best-probe rule")
		}
	}
}

func TestTargetRIdenticalToReference(t *testing.T) {
	sizes := []int{50, 200, 1000}
	if testing.Short() || raceEnabled {
		sizes = []int{50, 200}
	}
	targets := []int{2, 3, 40, 150, 500}
	for _, m := range sizes {
		for kind, ds := range identityDatasets(t, m) {
			t.Run(fmt.Sprintf("%s/m=%d", kind, m), func(t *testing.T) {
				t.Parallel()
				for _, lazy := range []bool{true, false} {
					probe := referenceProbes(ds, lazy)
					// Build2WithTargetR is this call with one target, so
					// the first search here is also the wrapper's: fresh
					// scratch. The later ones reuse it.
					got, err := Build2WithTargetRs(ds, targets, lazy)
					if err != nil {
						t.Fatal(err)
					}
					for i, r := range targets {
						want, err := referenceTargetR(probe, r)
						if err != nil {
							t.Fatal(err)
						}
						sameSet(t, fmt.Sprintf("r=%d lazy=%v", r, lazy), got[i], want)
					}
				}
			})
		}
	}
}

// TestBuild2IdenticalToReference pins the single pass — the typed
// heap's sift order — at fixed ε, away from any search.
func TestBuild2IdenticalToReference(t *testing.T) {
	sets := identityDatasets(t, 200)
	// Twins: every series twice, so candidates tie on time exactly and
	// the heap's order among equals is exercised.
	var twins []*tsdata.Series
	for _, s := range sets["walk"].AllSeries()[:60] {
		for range 2 {
			var times, values []float64
			for j := 0; j <= s.NumSegments(); j++ {
				times = append(times, s.VertexTime(j))
				values = append(values, s.VertexValue(j))
			}
			twin, err := tsdata.NewSeries(tsdata.SeriesID(len(twins)), times, values)
			if err != nil {
				t.Fatal(err)
			}
			twins = append(twins, twin)
		}
	}
	var err error
	if sets["twins"], err = tsdata.NewDataset(twins); err != nil {
		t.Fatal(err)
	}
	for kind, ds := range sets {
		for _, eps := range []float64{1e-1, 1e-2, 1e-3, 1e-4} {
			for _, lazy := range []bool{true, false} {
				want, err := referenceBuild2(ds, eps, lazy)
				if err != nil {
					t.Fatal(err)
				}
				build := Build2
				if !lazy {
					build = Build2Baseline
				}
				got, err := build(ds, eps)
				if err != nil {
					t.Fatal(err)
				}
				sameSet(t, fmt.Sprintf("%s eps=%g lazy=%v", kind, eps, lazy), got, want)
			}
		}
	}
}
