package breakpoint

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"temporalrank/internal/tsdata"
)

func randomSeries(rng *rand.Rand, id tsdata.SeriesID, n int, negative bool) *tsdata.Series {
	times := make([]float64, n+1)
	values := make([]float64, n+1)
	t := rng.Float64() * 2
	for j := 0; j <= n; j++ {
		times[j] = t
		t += 0.2 + rng.Float64()*2
		v := rng.Float64() * 100
		if negative {
			v -= 50
		}
		values[j] = v
	}
	s, err := tsdata.NewSeries(id, times, values)
	if err != nil {
		panic(err)
	}
	return s
}

func randomDataset(seed int64, m, maxSegs int, negative bool) *tsdata.Dataset {
	rng := rand.New(rand.NewSource(seed))
	series := make([]*tsdata.Series, m)
	for i := 0; i < m; i++ {
		series[i] = randomSeries(rng, tsdata.SeriesID(i), 1+rng.Intn(maxSegs), negative)
	}
	d, err := tsdata.NewDataset(series)
	if err != nil {
		panic(err)
	}
	return d
}

// checkLemma2 verifies that between any two consecutive breakpoints no
// single object accumulates more than εM of |aggregate| (the invariant
// both constructions guarantee, Lemma 2).
func checkLemma2(t *testing.T, name string, ds *tsdata.Dataset, s *Set) {
	t.Helper()
	limit := s.Epsilon * s.M * (1 + 1e-7)
	for j := 0; j+1 < len(s.Times); j++ {
		for _, ser := range ds.AllSeries() {
			got := ser.AbsRange(s.Times[j], s.Times[j+1])
			if got > limit {
				t.Fatalf("%s: object %d has |σ|=%g > εM=%g in [b%d=%g, b%d=%g]",
					name, ser.ID, got, s.Epsilon*s.M, j, s.Times[j], j+1, s.Times[j+1])
			}
		}
	}
}

// checkTotalRule verifies BREAKPOINTS1's stronger invariant: the SUM of
// all objects' |aggregates| between consecutive interior breakpoints is
// εM (up to fp tolerance); the final gap may be smaller.
func checkTotalRule(t *testing.T, ds *tsdata.Dataset, s *Set) {
	t.Helper()
	want := s.Epsilon * s.M
	for j := 0; j+2 < len(s.Times); j++ {
		var total float64
		for _, ser := range ds.AllSeries() {
			total += ser.AbsRange(s.Times[j], s.Times[j+1])
		}
		if math.Abs(total-want) > want*1e-6 {
			t.Fatalf("B1 gap %d: Σ|σ| = %g, want εM = %g", j, total, want)
		}
	}
}

func TestBuild1CountMatchesTheory(t *testing.T) {
	ds := randomDataset(1, 20, 30, false)
	for _, r := range []int{5, 11, 51, 101} {
		eps := EpsilonForR1(r)
		s, err := Build1(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		// r = 1/eps + 1 breakpoints (±1 for the final fractional gap).
		if s.R() < r || s.R() > r+1 {
			t.Errorf("Build1(eps=%g): r = %d, want %d or %d", eps, s.R(), r, r+1)
		}
		checkTotalRule(t, ds, s)
		checkLemma2(t, "B1", ds, s)
	}
}

func TestBuild1Endpoints(t *testing.T) {
	ds := randomDataset(2, 10, 10, false)
	s, err := Build1(ds, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.Times[0] != ds.Start() {
		t.Errorf("b0 = %g, want %g", s.Times[0], ds.Start())
	}
	if s.Times[len(s.Times)-1] != ds.End() {
		t.Errorf("br = %g, want %g", s.Times[len(s.Times)-1], ds.End())
	}
}

func TestBuild1InvalidEps(t *testing.T) {
	ds := randomDataset(3, 5, 5, false)
	if _, err := Build1(ds, 0); err == nil {
		t.Error("eps=0 accepted")
	}
	if _, err := Build1(ds, -1); err == nil {
		t.Error("eps<0 accepted")
	}
}

func TestBuild2Lemma2(t *testing.T) {
	ds := randomDataset(4, 25, 30, false)
	for _, eps := range []float64{0.2, 0.05, 0.01} {
		s, err := Build2(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		checkLemma2(t, "B2-E", ds, s)
		sb, err := Build2Baseline(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		checkLemma2(t, "B2-B", ds, sb)
	}
}

// TestBuild2TightCuts: each interior breakpoint of B2 must be caused by
// some object reaching (approximately) εM — cuts should not be
// gratuitously early. We verify the max over objects of |σ| in each
// interior gap is close to εM.
func TestBuild2TightCuts(t *testing.T) {
	ds := randomDataset(5, 15, 25, false)
	eps := 0.02
	s, err := Build2(ds, eps)
	if err != nil {
		t.Fatal(err)
	}
	want := eps * s.M
	for j := 0; j+2 < len(s.Times); j++ {
		var maxAgg float64
		for _, ser := range ds.AllSeries() {
			if a := ser.AbsRange(s.Times[j], s.Times[j+1]); a > maxAgg {
				maxAgg = a
			}
		}
		if maxAgg < want*(1-1e-6) {
			t.Fatalf("B2 gap %d: max|σ| = %g < εM = %g (cut too early)", j, maxAgg, want)
		}
	}
}

func TestBuild2BaselineEqualsEfficient(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		neg := seed%2 == 0
		ds := randomDataset(10+seed, 12, 20, neg)
		for _, eps := range []float64{0.3, 0.08, 0.02} {
			a, err := Build2Baseline(ds, eps)
			if err != nil {
				t.Fatal(err)
			}
			b, err := Build2(ds, eps)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Times) != len(b.Times) {
				t.Fatalf("seed %d eps %g: baseline r=%d, efficient r=%d", seed, eps, len(a.Times), len(b.Times))
			}
			for i := range a.Times {
				if math.Abs(a.Times[i]-b.Times[i]) > 1e-7*(1+math.Abs(a.Times[i])) {
					t.Fatalf("seed %d eps %g: breakpoint %d differs: %g vs %g",
						seed, eps, i, a.Times[i], b.Times[i])
				}
			}
		}
	}
}

// TestBuild2KeepsMinimum drives Build2's key updates directly: a fold
// that lowers a key below the least makes it the least, one that moves
// the least key later hands the minimum to the next-least object, and
// a fold that finds no crossing leaves the object's key standing. On
// generated data a fold almost never moves the least key (a pending
// crossing lies before the next segment starts), so the identity tests
// do not reach the rescan.
func TestBuild2KeepsMinimum(t *testing.T) {
	flat := tsdata.Segment{T1: 0, T2: 10, V1: 1, V2: 1} // |g| = 1: crosses a threshold of 1 at t = 1
	sw := &sweep{
		states:    make([]objState, 3),
		keys:      []float64{5, 0.5, 0.8, math.Inf(1)},
		live:      []int32{0, 1, 2},
		threshold: 1,
		minObj:    1,
	}
	for i := range sw.states {
		sw.states[i] = objState{cur: flat, hasCur: true, acc: 10}
	}
	check := func(step string, wantT float64, wantObj int) {
		t.Helper()
		if gotT, gotObj := sw.keys[sw.minObj], sw.minObj; gotT != wantT || gotObj != wantObj {
			t.Fatalf("%s: least key (%g, %d), want (%g, %d)", step, gotT, gotObj, wantT, wantObj)
		}
	}
	sw.refresh(1) // the least key moves from 0.5 to 1
	check("least key moved later", 0.8, 2)
	sw.states[0].cur = tsdata.Segment{T1: 0, T2: 10, V1: 4, V2: 4}
	sw.states[0].acc = 40
	sw.refresh(0) // 5 -> 0.25
	check("key lowered below the least", 0.25, 0)
	sw.states[0].acc = 0.5
	sw.refresh(0) // under the threshold: no crossing
	check("no crossing", 0.25, 0)
}

// TestBuild2RekeysBelowHorizon checks what one re-key pass touches:
// the keys at or past the old horizon and below the new one that were
// computed under an earlier breakpoint. Keys below the old horizon are
// exact already, as is a key computed under the last breakpoint; keys
// past the new one stay lower bounds; an object with no crossing left
// drops out of the live list.
func TestBuild2RekeysBelowHorizon(t *testing.T) {
	seg := tsdata.Segment{T1: 0, T2: 100, V1: 1, V2: 1} // |g| = 1
	inf := math.Inf(1)
	sw := &sweep{
		states:    make([]objState, 6),
		keys:      []float64{1.5, 3, 3.5, 9, inf, 1.2, inf},
		live:      []int32{0, 1, 2, 3, 5},
		threshold: 1,
		lastBP:    1,
		horizon:   1.25,
	}
	// Every key was computed under the breakpoint at 0 but object 1's.
	// Under the one at 1 each object would cross again at 2, but object
	// 2, whose segment ends at 1.5 with only 0.5 accumulated.
	for i := range sw.states {
		sw.states[i] = objState{cur: seg, hasCur: true, acc: 100}
	}
	sw.states[1].keyedAt = 1
	sw.states[2].cur.T2 = 1.5
	sw.rekey(4)
	if want := []float64{2, 3, inf, 9, inf, 1.2, inf}; !slices.Equal(sw.keys, want) {
		t.Fatalf("keys after rekey(4) = %v, want %v", sw.keys, want)
	}
	if want := []int32{0, 1, 3, 5}; !slices.Equal(sw.live, want) {
		t.Fatalf("live after rekey(4) = %v, want %v", sw.live, want)
	}
	if sw.horizon != 4 || sw.minObj != 5 {
		t.Fatalf("horizon %g, least key at %d; want 4 and 5", sw.horizon, sw.minObj)
	}
}

// TestB2NoLargerThanB1: BREAKPOINTS2 never needs more breakpoints than
// BREAKPOINTS1 at the same ε (max ≤ sum).
func TestB2NoLargerThanB1(t *testing.T) {
	ds := randomDataset(6, 20, 25, false)
	for _, eps := range []float64{0.1, 0.02, 0.005} {
		b1, err := Build1(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		b2, err := Build2(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		if b2.R() > b1.R() {
			t.Errorf("eps=%g: B2 r=%d > B1 r=%d", eps, b2.R(), b1.R())
		}
	}
}

// TestB2MuchSmallerOnManyObjects reproduces the Fig. 11a effect: with
// many comparable objects, the max rule cuts far less often than the
// sum rule, so B2 needs a much smaller ε to reach the same r.
func TestB2MuchSmallerOnManyObjects(t *testing.T) {
	ds := randomDataset(7, 60, 20, false)
	eps := 0.01
	b1, _ := Build1(ds, eps)
	b2, _ := Build2(ds, eps)
	if b2.R()*5 > b1.R() {
		t.Errorf("B2 r=%d should be ≪ B1 r=%d with m=60 objects", b2.R(), b1.R())
	}
}

func TestNegativeScores(t *testing.T) {
	ds := randomDataset(8, 15, 20, true)
	if !ds.HasNegative() {
		t.Fatal("fixture should contain negatives")
	}
	for _, eps := range []float64{0.1, 0.02} {
		b1, err := Build1(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		checkLemma2(t, "B1(neg)", ds, b1)
		checkTotalRule(t, ds, b1)
		b2, err := Build2(ds, eps)
		if err != nil {
			t.Fatal(err)
		}
		checkLemma2(t, "B2(neg)", ds, b2)
	}
}

func TestSnap(t *testing.T) {
	s := &Set{Times: []float64{0, 10, 20, 30}}
	cases := []struct {
		t    float64
		want float64
		idx  int
	}{
		{-5, 0, 0}, {0, 0, 0}, {0.1, 10, 1}, {10, 10, 1},
		{15, 20, 2}, {30, 30, 3}, {35, 30, 3},
	}
	for _, c := range cases {
		got, idx := s.Snap(c.t)
		if got != c.want || idx != c.idx {
			t.Errorf("Snap(%g) = (%g,%d), want (%g,%d)", c.t, got, idx, c.want, c.idx)
		}
	}
}

func TestSetValidate(t *testing.T) {
	if err := (&Set{Times: []float64{0, 1, 2}}).Validate(); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := (&Set{Times: []float64{0}}).Validate(); err == nil {
		t.Error("single breakpoint accepted")
	}
	if err := (&Set{Times: []float64{0, 1, 1}}).Validate(); err == nil {
		t.Error("duplicate accepted")
	}
	if err := (&Set{Times: []float64{0, 2, 1}}).Validate(); err == nil {
		t.Error("unsorted accepted")
	}
}

func TestBuild2WithTargetR(t *testing.T) {
	ds := randomDataset(9, 20, 25, false)
	for _, r := range []int{10, 40, 100} {
		s, err := Build2WithTargetR(ds, r, true)
		if err != nil {
			t.Fatal(err)
		}
		// Bisection should land within 25% of the budget.
		if absInt(s.R()-r) > r/4+2 {
			t.Errorf("target r=%d: got %d breakpoints", r, s.R())
		}
		checkLemma2(t, "B2(targetR)", ds, s)
	}
	if _, err := Build2WithTargetR(ds, 1, true); err == nil {
		t.Error("r=1 accepted")
	}
}

// TestSingleGiantSegment: one object holds nearly all the mass in one
// long segment; B2 must cut inside the segment repeatedly.
func TestSingleGiantSegment(t *testing.T) {
	big, err := tsdata.NewSeries(0, []float64{0, 100}, []float64{10, 10})
	if err != nil {
		t.Fatal(err)
	}
	small, err := tsdata.NewSeries(1, []float64{0, 100}, []float64{0.01, 0.01})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tsdata.NewDataset([]*tsdata.Series{big, small})
	if err != nil {
		t.Fatal(err)
	}
	eps := 0.05
	s, err := Build2(ds, eps)
	if err != nil {
		t.Fatal(err)
	}
	checkLemma2(t, "B2(giant)", ds, s)
	// The big object has ~0.999 of M; expect ~1/0.05 ≈ 20 cuts.
	if s.R() < 15 {
		t.Errorf("r = %d, want about 20 cuts inside the giant segment", s.R())
	}
	sb, err := Build2Baseline(ds, eps)
	if err != nil {
		t.Fatal(err)
	}
	if sb.R() != s.R() {
		t.Errorf("baseline r=%d != efficient r=%d", sb.R(), s.R())
	}
}

func TestBuild1MultipleCutsWithinElementaryInterval(t *testing.T) {
	// A single two-segment object forces many cuts inside segments.
	ser, err := tsdata.NewSeries(0, []float64{0, 50, 100}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := tsdata.NewDataset([]*tsdata.Series{ser})
	if err != nil {
		t.Fatal(err)
	}
	s, err := Build1(ds, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if s.R() < 11 {
		t.Errorf("r = %d, want 11 for eps=0.1 on constant data", s.R())
	}
	checkTotalRule(t, ds, s)
	// Cuts should be evenly spaced on constant data.
	for j := 1; j+1 < len(s.Times); j++ {
		gap := s.Times[j] - s.Times[j-1]
		if math.Abs(gap-10) > 1e-6 {
			t.Errorf("gap %d = %g, want 10", j, gap)
		}
	}
}

// referenceExtend is Set.Extend as it stood before it handed the
// solver the area it had just computed: the solver evaluated that
// integral again.
func referenceExtend(s *Set, ds *tsdata.Dataset, firstNew float64) {
	threshold := s.Epsilon * s.M
	keep := max(sort.SearchFloat64s(s.Times, firstNew), 1)
	s.Times = s.Times[:keep]
	last := s.Times[keep-1]
	if ds.End() <= last {
		return
	}
	for {
		next := math.Inf(1)
		for _, ser := range ds.AllSeries() {
			if ser.End() <= last {
				continue
			}
			acc := 0.0
			for j := ser.SegmentAt(math.Max(last, ser.Start())); j < ser.NumSegments(); j++ {
				seg := ser.Segment(j)
				from := math.Max(last, seg.T1)
				if from >= seg.T2 {
					continue
				}
				area := seg.AbsIntegralOver(from, seg.T2)
				if acc+area >= threshold {
					if t, ok := seg.SolveAbsIntegralForward(from, threshold-acc); ok && t < next {
						next = t
					}
					break
				}
				acc += area
			}
		}
		if math.IsInf(next, 1) || next <= last {
			break
		}
		s.Times = append(s.Times, next)
		last = next
	}
	if last < ds.End() {
		s.Times = append(s.Times, ds.End())
	}
}

func TestExtendPreservesLemma2(t *testing.T) {
	// constant is one object of value 1 in ten segments of length 10: at
	// ε = 0.1 every crossing falls on a vertex, where the target the
	// solver gets is the whole area of the segment it solves in.
	constant, err := tsdata.NewSeries(0, []float64{0, 10, 20, 30, 40, 50, 60, 70, 80, 90, 100}, []float64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	constantDS, err := tsdata.NewDataset([]*tsdata.Series{constant})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		ds   *tsdata.Dataset
		eps  float64
	}{
		{"positive", randomDataset(60, 12, 15, false), 0.03},
		{"negative", randomDataset(60, 12, 15, true), 0.03},
		{"constant", constantDS, 0.1},
	} {
		ds := c.ds
		s, err := Build2(ds, c.eps)
		if err != nil {
			t.Fatal(err)
		}
		rBefore := s.R()
		// Append new data to every object (the §4 update model). Objects
		// end at different times, so some appends land inside the original
		// breakpoint domain — Extend must repair those gaps too.
		rng := rand.New(rand.NewSource(61))
		firstNew := math.Inf(1)
		for _, ser := range ds.AllSeries() {
			end := ser.End()
			if end < firstNew {
				firstNew = end
			}
			for a := 0; a < 20; a++ {
				v := rng.Float64() * 100
				if c.name == "constant" {
					end, v = end+10, 1
				} else {
					end += 0.2 + rng.Float64()
				}
				if err := ser.Append(end, v); err != nil {
					t.Fatal(err)
				}
			}
		}
		ds.Refresh()
		ref := &Set{Times: slices.Clone(s.Times), Epsilon: s.Epsilon, M: s.M}
		if err := s.Extend(ds, firstNew); err != nil {
			t.Fatal(err)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
		// Extend places the reference's breakpoints bit for bit.
		referenceExtend(ref, ds, firstNew)
		if !slices.EqualFunc(s.Times, ref.Times, func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }) {
			t.Errorf("%s: Extend placed %d breakpoints, not the reference's %d bit for bit", c.name, s.R(), ref.R())
		}
		if s.R() <= rBefore {
			t.Errorf("%s: Extend added no breakpoints (%d -> %d) despite new mass", c.name, rBefore, s.R())
		}
		if got := s.Times[len(s.Times)-1]; got != ds.End() {
			t.Errorf("%s: last breakpoint %g != new end %g", c.name, got, ds.End())
		}
		// Lemma 2 with the ORIGINAL threshold τ = ε·M_build must hold over
		// the extended region too.
		limit := s.Epsilon * s.M * (1 + 1e-7)
		for j := 0; j+1 < len(s.Times); j++ {
			for _, ser := range ds.AllSeries() {
				if got := ser.AbsRange(s.Times[j], s.Times[j+1]); got > limit {
					t.Fatalf("%s: gap %d [%g,%g]: object %d |σ|=%g > τ=%g",
						c.name, j, s.Times[j], s.Times[j+1], ser.ID, got, s.Epsilon*s.M)
				}
			}
		}
	}
}

func TestExtendNoNewData(t *testing.T) {
	ds := randomDataset(62, 5, 8, false)
	s, err := Build2(ds, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	r := s.R()
	if err := s.Extend(ds, ds.End()); err != nil {
		t.Fatal(err)
	}
	if s.R() != r {
		t.Errorf("Extend without new data changed r: %d -> %d", r, s.R())
	}
}
