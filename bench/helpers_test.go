package main

import (
	"context"
	"math"
	"testing"
	"time"

	"temporalrank"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},         // 9.5 samples beyond the median: too few
		{20, 0.5, true},        // exactly ten beyond the median
		{100, 0.9, true},       // ten beyond p90, one beyond p99
		{999, 0.9, true},       // 9.99 beyond p99
		{1000, 0.99, true},     // ten beyond p99
		{100000, 0.9999, true}, // ten beyond p99.99
		{1 << 30, 0.9999, true},
	} {
		got, ok := tailPercentile(c.n)
		if ok != c.ok || got != c.want {
			t.Errorf("tailPercentile(%d) = %g, %v; want %g, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := []int64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100}
	for _, c := range []struct {
		p    float64
		want int64
	}{{0, 10}, {0.5, 50}, {0.9, 90}, {0.91, 100}, {0.99, 100}, {1, 100}} {
		if got := percentile(s, c.p); got != c.want {
			t.Errorf("percentile(%g) = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentileOf(nil, 0.5); got != 0 {
		t.Errorf("percentileOf(nil) = %g, want 0", got)
	}
	unsorted := []int64{3, 1, 2}
	if got := medianInt64(unsorted); got != 2 || unsorted[0] != 3 {
		t.Errorf("medianInt64 = %g (input now %v), want 2 with the input untouched", got, unsorted)
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{5, 1, 3}); got != 3 {
		t.Errorf("odd median = %g", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %g", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("empty median = %g", got)
	}
}

// One noisy segment must not move the reported values, and a spike must
// stay visible in the p99 of the segment it hit.
func TestReduceSegmentsIsMedianOfSegments(t *testing.T) {
	fast := make([]int64, 1000)
	for i := range fast {
		fast[i] = 1000 // 1 us
	}
	spiky := append([]int64(nil), fast...)
	for i := 0; i < 20; i++ {
		spiky[i] = 5e6 // a 5 ms stall on 2 % of the operations
	}
	slow := make([]int64, 100) // a segment a noisy neighbour slowed tenfold
	for i := range slow {
		slow[i] = 10000
	}
	segs := []segmentStat{
		summarizeSegment([][]int64{fast[:500], fast[500:]}, 1),
		summarizeSegment([][]int64{spiky}, 1),
		summarizeSegment([][]int64{slow}, 1),
	}
	if segs[1].p99 != 5000 {
		t.Errorf("spiky segment p99 = %g us, want the 5000 us stall", segs[1].p99)
	}
	for _, c := range []struct {
		name string
		f    func(segmentStat) float64
		want float64
	}{
		{"ops", func(s segmentStat) float64 { return s.opsPerS }, 1000},
		{"p50", func(s segmentStat) float64 { return s.p50 }, 1},
		{"p95", func(s segmentStat) float64 { return s.p95 }, 1},
		{"p99", func(s segmentStat) float64 { return s.p99 }, 10}, // the middle of 1, 10 and 5000
	} {
		got, per := reduceSegments(segs, c.f)
		if got != c.want || len(per) != len(segs) {
			t.Errorf("reduced %s = %g over %v, want %g", c.name, got, per, c.want)
		}
	}
}

func TestSubSeedIndependentAndStable(t *testing.T) {
	if subSeed(7, "a") != subSeed(7, "a") {
		t.Fatal("subSeed is not a function of its inputs")
	}
	if subSeed(7, "a") == subSeed(7, "b") || subSeed(7, "a") == subSeed(8, "a") {
		t.Fatal("subSeed collides across labels or seeds")
	}
	if subSeed(-1, "a") < 0 {
		t.Fatal("subSeed must be non-negative")
	}
}

func TestTemplateStreamSeededZipf(t *testing.T) {
	dom := domain{start: 0, span: 400}
	tmpl := makeTemplates(newRand(1, "templates"), 4096, dom, tolerantKind)
	again := makeTemplates(newRand(1, "templates"), 4096, dom, tolerantKind)
	for i := range tmpl {
		if tmpl[i] != again[i] {
			t.Fatalf("template %d differs between two generations from one seed", i)
		}
		q := tmpl[i]
		if q.Agg == temporalrank.AggInstant || q.K != queryK || q.MaxEpsilon != repeatMaxEps {
			t.Fatalf("template %d = %+v: want a tolerant sum or avg of k=%d", i, q, queryK)
		}
		if w := (q.T2 - q.T1) / dom.span; w < 0.02-1e-12 || w > 0.40+1e-12 || q.T1 < dom.start || q.T2 > dom.start+dom.span+1e-9 {
			t.Fatalf("template %d window [%g,%g] outside 2-40 %% of the domain", i, q.T1, q.T2)
		}
	}
	a := newTemplateStream(newRand(1, "client-0"), tmpl)
	b := newTemplateStream(newRand(1, "client-0"), tmpl)
	c := newTemplateStream(newRand(1, "client-1"), tmpl)
	counts := make(map[temporalrank.Query]int)
	same := 0
	const n = 20000
	for i := 0; i < n; i++ {
		qa, qb, qc := a.next().q, b.next().q, c.next().q
		if qa != qb {
			t.Fatalf("draw %d differs between two streams with one seed", i)
		}
		if qa == qc {
			same++
		}
		counts[qa]++
	}
	if same > n/2 {
		t.Errorf("two clients drew the same template %d of %d times: their streams are not independent", same, n)
	}
	// Zipf(1.2): rank 0 is the most popular by far, and the 256 hottest
	// templates (the result cache's size) take the bulk of the draws.
	if top := counts[tmpl[0]]; top < n/6 {
		t.Errorf("rank 0 drawn %d of %d times, want the mode of a Zipf(1.2)", top, n)
	}
	hot := 0
	for _, q := range tmpl[:256] {
		hot += counts[q]
	}
	if share := float64(hot) / n; share < 0.70 || share > 0.90 {
		t.Errorf("256 hottest templates take %.3f of the draws, want about 0.8", share)
	}
}

func TestScanStreamMixAndWindows(t *testing.T) {
	dom := domain{start: 5, span: 400}
	s := &scanStream{rng: newRand(3, "scan"), dom: dom}
	kinds := make(map[temporalrank.Agg]int)
	seen := make(map[temporalrank.Query]bool)
	const n = 20000
	for i := 0; i < n; i++ {
		q := s.next().q
		kinds[q.Agg]++
		if seen[q] {
			t.Fatalf("query %+v repeated: scan streams must never repeat", q)
		}
		seen[q] = true
		if q.MaxEpsilon != 0 || q.K != queryK {
			t.Fatalf("scan query %+v: want exact, k=%d", q, queryK)
		}
		if q.Agg != temporalrank.AggInstant {
			if w := (q.T2 - q.T1) / dom.span; w < 0.01-1e-12 || w > 0.40+1e-12 {
				t.Fatalf("window %g of the domain outside 1-40 %%", w)
			}
		}
	}
	for agg, want := range map[temporalrank.Agg]float64{temporalrank.AggSum: 0.7, temporalrank.AggAvg: 0.2, temporalrank.AggInstant: 0.1} {
		if got := float64(kinds[agg]) / n; math.Abs(got-want) > 0.02 {
			t.Errorf("%s share %.3f, want %.1f", agg, got, want)
		}
	}
}

func TestAppendStreamOwnershipAndClock(t *testing.T) {
	const m = 11
	fr := &frontier{end: make([]float64, m), val: make([]float64, m), step: 2}
	for i := range fr.end {
		fr.end[i], fr.val[i] = 100+float64(i), 50 // ragged ends, like generated data
	}
	fr.latest.store(110)
	streams := []*appendStream{
		newAppendStream(newRand(1, "w0"), fr, 0, 2),
		newAppendStream(newRand(1, "w1"), fr, 1, 2),
	}
	last := append([]float64(nil), fr.end...)
	touched := make(map[int]bool)
	const n = 4000
	for i := 0; i < n; i++ {
		s := streams[i%2]
		o := s.next()
		if !o.isAppend || o.id < 0 || o.id >= m || o.id%2 != s.owner {
			t.Fatalf("client %d generated %+v: not an append to a series it owns", s.owner, o)
		}
		if o.t <= last[o.id] || o.t < s.now {
			t.Fatalf("append to series %d at %g: want past its end %g and not before the clock %g", o.id, o.t, last[o.id], s.now)
		}
		if o.v < 1 {
			t.Fatalf("appended value %g below the Temp generator's floor", o.v)
		}
		last[o.id] = o.t
		touched[o.id] = true
	}
	if len(touched) != m {
		t.Errorf("%d of %d series appended to: the pick is not uniform over owned series", len(touched), m)
	}
	// The clocks advanced one mean segment length per m appends in all,
	// and every series ends within a few segment lengths of "now".
	now := streams[0].now
	if want := 110 + float64(n)/m*fr.step; math.Abs(now-want) > 1e-6 {
		t.Errorf("clock at %g after %d appends, want %g", now, n, want)
	}
	for id, end := range last {
		if now-end > 10*fr.step {
			t.Errorf("series %d ends at %g, far behind the clock %g", id, end, now)
		}
	}
	// A new phase's stream continues the feed from the latest
	// acknowledged append rather than restarting the clock.
	fr.acknowledge(now)
	if next := newAppendStream(newRand(1, "w2"), fr, 0, 1); next.now != now {
		t.Errorf("next phase's clock starts at %g, want %g", next.now, now)
	}
}

// fakeClock is a pacer clock that only moves when told to.
type fakeClock struct {
	now   time.Time
	slept []time.Duration
}

func (c *fakeClock) sleep(d time.Duration) {
	c.slept = append(c.slept, d)
	c.now = c.now.Add(d)
}

func TestPacerSchedulesFromDueTimesAndCatchesUp(t *testing.T) {
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	p := newPacer(start, 1000) // one operation per millisecond
	p.now = func() time.Time { return clk.now }
	p.sleep = clk.sleep

	// On time: each wait sleeps to the next slot and reports no lateness.
	for i := 0; i < 3; i++ {
		due, late := p.wait()
		if want := start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) || late != 0 {
			t.Fatalf("op %d due %v late %v, want %v on time", i, due, late, want)
		}
		clk.now = clk.now.Add(100 * time.Microsecond) // the operation itself
	}
	// A 10 ms stall (a reader or a compaction holding both cores).
	clk.now = clk.now.Add(10 * time.Millisecond)
	stalledAt := clk.now
	sleeps := len(clk.slept)
	var lates []time.Duration
	for i := 3; ; i++ {
		due, late := p.wait()
		if want := start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
			t.Fatalf("op %d due %v, want %v: the schedule skipped or repeated a slot", i, due, want)
		}
		if late == 0 {
			break // caught up
		}
		if len(clk.slept) != sleeps {
			t.Fatalf("op %d slept while %v behind schedule", i, late)
		}
		if want := clk.now.Sub(due); late != want {
			t.Fatalf("op %d lateness %v, want %v measured from its due time", i, late, want)
		}
		lates = append(lates, late)
		clk.now = clk.now.Add(100 * time.Microsecond)
	}
	// Every slot that came due during the stall was issued, back to back,
	// each less late than the one before.
	if want := int(stalledAt.Sub(start)/time.Millisecond) - 2; len(lates) < want {
		t.Fatalf("%d overdue operations issued after the stall, want at least %d", len(lates), want)
	}
	for i := 1; i < len(lates); i++ {
		if lates[i] >= lates[i-1] {
			t.Fatalf("lateness did not shrink while catching up: %v", lates)
		}
	}
}

// corruptingQuerier answers like the Querier it wraps, except that every
// nth answer has its best result's score nudged.
type corruptingQuerier struct {
	inner temporalrank.Querier
	nth   int
	calls int
}

func (c *corruptingQuerier) Run(ctx context.Context, q temporalrank.Query) (temporalrank.Answer, error) {
	ans, err := c.inner.Run(ctx, q)
	c.calls++
	if err == nil && c.calls%c.nth == 0 {
		ans.Results = append([]temporalrank.Result(nil), ans.Results...)
		ans.Results[0].Score *= 1.001
	}
	return ans, err
}

func testModel(t *testing.T) (*model, *temporalrank.Index) {
	t.Helper()
	ds, err := gen.Temp(gen.TempConfig{M: 60, Navg: 30, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	ix, err := temporalrank.NewDBFromDataset(ds).BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	return newModel(ds), ix
}

func TestVerifySampleCountsAWrongAnswer(t *testing.T) {
	m, ix := testModel(t)
	dom := domain{start: m.ds.Start(), span: m.ds.Span()}
	qs := takeQueries(&scanStream{rng: newRand(9, "verify"), dom: dom}, 50)
	ctx := context.Background()

	if v := verifySample(ctx, ix, m, qs, 150); v.failed != 0 || v.attempted != 50 || v.precision() != 1 {
		t.Fatalf("honest index: %+v, want 50 attempted, none failed, precision 1", v)
	}
	v := verifySample(ctx, &corruptingQuerier{inner: ix, nth: 10}, m, qs, 150)
	if v.failed != 5 || v.firstErr == nil {
		t.Fatalf("corrupting querier: %d failures (%v), want the 5 wrong answers counted", v.failed, v.firstErr)
	}
}

func TestCheckApproxBound(t *testing.T) {
	want := temporalrank.Answer{Results: []temporalrank.Result{{ID: 1, Score: 1000}, {ID: 2, Score: 900}}}
	got := temporalrank.Answer{Epsilon: 0.01, Results: []temporalrank.Result{{ID: 2, Score: 1040}, {ID: 1, Score: 200}}}
	// mass 5000: εM = 50. Rank 0 is 40 above the truth; rank 1 is far
	// below it but above 900/α - 50 for α = 2·log₂(151).
	if err := checkApprox(got, want, 5000, 150); err != nil {
		t.Errorf("answer inside the (ε,α) bound rejected: %v", err)
	}
	got.Results[0].Score = 1051
	if err := checkApprox(got, want, 5000, 150); err == nil {
		t.Error("score above truth + εM accepted")
	}
	got.Results[0].Score, got.Results[1].Score = 1000, 10
	if err := checkApprox(got, want, 5000, 150); err == nil {
		t.Error("score below truth/α - εM accepted")
	}
	if err := checkApprox(temporalrank.Answer{}, want, 5000, 150); err == nil {
		t.Error("short answer accepted")
	}
}

// lossyScorer reads back every series correctly except one.
type lossyScorer struct {
	m    *model
	lose int
}

func (s lossyScorer) Score(id int, t1, t2 float64) (float64, error) {
	if id == s.lose {
		return 0, nil
	}
	return s.m.db.Score(id, t1, t2)
}

func TestUnreadableAppendsCountsLostSeries(t *testing.T) {
	m, _ := testModel(t)
	var recs []appendRec
	for _, id := range []int{3, 3, 7, 9, 9, 9} {
		rec := appendRec{id: id, t: m.ds.Series(tsdata.SeriesID(id)).End() + 1, v: 300}
		if err := m.apply([]appendRec{rec}); err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
	if m.appended != 6 || len(m.touched) != 3 {
		t.Fatalf("model records %d appends on %d series, want 6 on 3", m.appended, len(m.touched))
	}
	if lost, err := unreadableAppends(lossyScorer{m: m, lose: -1}, m, recs); lost != 0 || err != nil {
		t.Fatalf("faithful stack: %d lost (%v)", lost, err)
	}
	if lost, err := unreadableAppends(lossyScorer{m: m, lose: 9}, m, recs); lost != 3 || err == nil {
		t.Fatalf("stack that lost series 9: %d lost (%v), want its 3 appends", lost, err)
	}
}
