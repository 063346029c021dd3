package temporalrank

import (
	"context"
	"errors"
	"math"
	"testing"
)

// plannerFixture builds a DB with one exact and two approximate
// indexes of different ε, the setup the Planner is designed for.
func plannerFixture(t *testing.T) (*DB, *Planner, *Index, *Index, *Index) {
	t.Helper()
	db := genDB(t)
	exact3, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	coarse, err := db.BuildIndex(Options{Method: MethodAppx2, TargetR: 40, KMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	fine, err := db.BuildIndex(Options{Method: MethodAppx2P, TargetR: 120, KMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, exact3, coarse, fine)
	if err != nil {
		t.Fatal(err)
	}
	return db, p, exact3, coarse, fine
}

// TestPlannerRoutesByEpsilon is the acceptance criterion: MaxEpsilon >
// 0 routes to an approximate index, MaxEpsilon == 0 to an exact one,
// and answers are validated against the DB.Run reference.
func TestPlannerRoutesByEpsilon(t *testing.T) {
	db, p, _, _, _ := plannerFixture(t)
	ctx := context.Background()
	t1 := db.Start() + db.Span()*0.1
	t2 := db.End() - db.Span()*0.1

	ref, err := db.Run(ctx, SumQuery(5, t1, t2))
	if err != nil {
		t.Fatal(err)
	}

	// Exact demand → exact index, answer identical to the reference.
	exactAns, err := p.Run(ctx, SumQuery(5, t1, t2))
	if err != nil {
		t.Fatal(err)
	}
	if exactAns.Method.IsApprox() || !exactAns.Exact {
		t.Fatalf("MaxEpsilon=0 answered by %s (exact=%v)", exactAns.Method, exactAns.Exact)
	}
	if !sameIDs(exactAns.Results, ref.Results) {
		t.Fatalf("exact route disagrees with reference: %v vs %v", exactAns.Results, ref.Results)
	}
	for i := range ref.Results {
		if d := math.Abs(exactAns.Results[i].Score - ref.Results[i].Score); d > 1e-7*(1+math.Abs(ref.Results[i].Score)) {
			t.Fatalf("rank %d: exact score %g vs reference %g", i, exactAns.Results[i].Score, ref.Results[i].Score)
		}
	}

	// Tolerant demand → approximate index within the tolerance, scores
	// within the (ε,α) additive bound εM of the reference.
	q := SumQuery(5, t1, t2)
	q.MaxEpsilon = 1.0 // generous: any approx index qualifies
	apxAns, err := p.Run(ctx, q)
	if err != nil {
		t.Fatal(err)
	}
	if !apxAns.Method.IsApprox() || apxAns.Exact {
		t.Fatalf("MaxEpsilon>0 answered by %s (exact=%v)", apxAns.Method, apxAns.Exact)
	}
	if apxAns.Epsilon <= 0 || apxAns.Epsilon > q.MaxEpsilon {
		t.Fatalf("answer ε=%g outside (0, %g]", apxAns.Epsilon, q.MaxEpsilon)
	}
	// α for APPX2-family is 2·log r; the additive part alone bounds how
	// far any reported score can sit above its exact counterpart's
	// neighborhood. Validate loosely: every approximate score within
	// εM of SOME exact score ordering is hard to pin; use the paper's
	// per-rank bound σ̃_j <= σ_j + εM and σ̃_j >= σ_j/α − εM.
	m := db.Snapshot().M()
	bound := apxAns.Epsilon * m * (1 + 1e-7)
	alpha := 2 * math.Log2(120+1)
	for j := range apxAns.Results {
		if j >= len(ref.Results) {
			break
		}
		exactScore := ref.Results[j].Score
		lo := exactScore/alpha - bound
		hi := exactScore + bound
		if apxAns.Results[j].Score < lo-1e-9 || apxAns.Results[j].Score > hi+1e-9 {
			t.Fatalf("rank %d: approx score %g outside [%g, %g]", j, apxAns.Results[j].Score, lo, hi)
		}
	}
}

// TestPlannerEpsilonThreshold: a tight tolerance admits only the
// fine-ε index; an impossible one falls back to exact.
func TestPlannerEpsilonThreshold(t *testing.T) {
	db, p, _, coarse, fine := plannerFixture(t)
	if fine.Epsilon() >= coarse.Epsilon() {
		t.Skipf("fixture εs not ordered: fine %g, coarse %g", fine.Epsilon(), coarse.Epsilon())
	}
	q := SumQuery(5, db.Start(), db.End())

	// Tolerance between the two εs: only the fine index qualifies.
	q.MaxEpsilon = (fine.Epsilon() + coarse.Epsilon()) / 2
	if got := p.Plan(q); got != fine {
		t.Fatalf("mid tolerance routed to %T %v", got, got)
	}

	// Tolerance below every ε: exact fallback.
	q.MaxEpsilon = fine.Epsilon() / 2
	ix, ok := p.Plan(q).(*Index)
	if !ok || ix.Method().IsApprox() {
		t.Fatalf("sub-ε tolerance did not fall back to an exact index")
	}
}

// TestPlannerKMaxFallback: k beyond every approximate index's KMax
// forces the exact route even under a generous tolerance.
func TestPlannerKMaxFallback(t *testing.T) {
	db, p, exact3, _, _ := plannerFixture(t)
	q := SumQuery(15, db.Start(), db.End()) // KMax is 10 on both approx indexes
	q.MaxEpsilon = 1.0
	if got := p.Plan(q); got != exact3 {
		t.Fatalf("k>KMax routed to %v, want the exact index", got)
	}
	ans, err := p.Run(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	if !ans.Exact {
		t.Fatalf("fallback answer not exact: %+v", ans)
	}
}

// TestPlannerInstantPrefersExact3 and the DB fallback without one.
func TestPlannerInstant(t *testing.T) {
	db, p, exact3, _, _ := plannerFixture(t)
	mid := (db.Start() + db.End()) / 2
	if got := p.Plan(InstantQuery(3, mid)); got != exact3 {
		t.Fatalf("instant routed to %v, want EXACT3", got)
	}

	// A planner with only approximate indexes scans the DB for
	// instants (and for exact demands).
	apx, err := db.BuildIndex(Options{Method: MethodAppx1, TargetR: 40, KMax: 10})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := NewPlanner(db, apx)
	if err != nil {
		t.Fatal(err)
	}
	if got := p2.Plan(InstantQuery(3, mid)); got != db {
		t.Fatalf("instant without EXACT3 routed to %v, want DB", got)
	}
	if got := p2.Plan(SumQuery(3, db.Start(), db.End())); got != db {
		t.Fatalf("exact demand over approx-only planner routed to %v, want DB", got)
	}
	ans, err := p2.Run(context.Background(), SumQuery(3, db.Start(), db.End()))
	if err != nil {
		t.Fatal(err)
	}
	if ans.Method != MethodReference || !ans.Exact {
		t.Fatalf("DB fallback misreported: %+v", ans)
	}
}

// TestPlannerRejectsForeignIndex: indexes must be built over the
// planner's DB.
func TestPlannerRejectsForeignIndex(t *testing.T) {
	db := genDB(t)
	other := genDB(t)
	ix, err := other.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewPlanner(db, ix); err == nil {
		t.Fatal("foreign index accepted")
	}
	if _, err := NewPlanner(nil); err == nil {
		t.Fatal("nil DB accepted")
	}
}

// TestPlannerEmptyAnswersExactly: a planner with no indexes is just a
// validated brute-force reference.
func TestPlannerEmpty(t *testing.T) {
	db := genDB(t)
	p, err := NewPlanner(db)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := p.Run(context.Background(), SumQuery(4, db.Start(), db.End()))
	if err != nil {
		t.Fatal(err)
	}
	if !sameIDs(ans.Results, mustRun(t, db, SumQuery(4, db.Start(), db.End()))) {
		t.Fatal("empty planner disagrees with reference")
	}
}

// TestConcurrentPlannerMetadataDuringAppend pins the generation-swap
// race: appends through the planner trigger background compactions that
// install a rebuilt approximate index while the Planner reads
// Epsilon()/KMax() and its cost model on whichever generation it
// pinned. Run under -race.
func TestConcurrentPlannerMetadataDuringAppend(t *testing.T) {
	db := genDB(t)
	ix, err := db.BuildIndex(Options{Method: MethodAppx2, TargetR: 30, KMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableMemtable(MemtableOptions{FlushSegments: 8}); err != nil {
		t.Fatal(err)
	}

	done := make(chan struct{})
	go func() {
		defer close(done)
		// Every eighth append starts a compaction unless one is running,
		// so several generation swaps race the reads below.
		tcur := db.End()
		for i := 0; i < 60; i++ {
			tcur += 2
			if err := p.Append(i%db.NumSeries(), tcur, 5000); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	q := SumQuery(3, db.Start(), db.End())
	q.MaxEpsilon = 1
	for i := 0; i < 200; i++ {
		for _, cur := range p.Indexes() {
			_ = cur.Epsilon()
			_ = cur.KMax()
			_ = p.EstimateIOs(cur, q)
		}
		if _, err := p.Run(context.Background(), q); err != nil {
			t.Fatal(err)
		}
	}
	<-done
	if err := p.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ := p.MemtableStats(); st.Generations == 0 {
		t.Fatal("no compaction ran beside the reads")
	}
}

// TestPlannerAppendLandsInMemtable: a planner built with NewPlanner
// alone ingests through its memtable — the append is buffered there,
// the index stays as built, and Run merges the delta at once.
func TestPlannerAppendLandsInMemtable(t *testing.T) {
	db := genDB(t)
	ix, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	end := db.End()
	if err := p.Append(3, end+10, 1e6); err != nil {
		t.Fatal(err)
	}
	if st, ok := p.MemtableStats(); !ok || st.ActiveSegments != 1 {
		t.Fatalf("MemtableStats = %+v, %v; want the append buffered", st, ok)
	}
	if db.End() != end {
		t.Fatal("the append reached the DB before any compaction")
	}
	ans, err := p.Run(context.Background(), SumQuery(1, end, end+10))
	if err != nil {
		t.Fatal(err)
	}
	if len(ans.Results) != 1 || ans.Results[0].ID != 3 {
		t.Fatalf("Run = %v; want the appended object on top", ans.Results)
	}
	if err := p.EnableMemtable(MemtableOptions{FlushSegments: 8}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("EnableMemtable after an append: %v, want ErrBadConfig", err)
	}
}
