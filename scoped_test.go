package temporalrank_test

import (
	"context"
	"testing"

	"temporalrank"
)

// This file pins the planner-level contract of scoped cache
// invalidation: a cached answer is served iff no append since it was
// stored overlaps its (series, time-range) footprint — so frontier
// writes keep answers about the past hot, so the hit ratio stays near
// 1 on a mixed workload.

func scopedFixture(t *testing.T, memtable bool) (*temporalrank.DB, *temporalrank.Planner) {
	t.Helper()
	inputs := clusterInputs(t, 30, 20, 271)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	p.EnableResultCache(32)
	if memtable {
		if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
			t.Fatal(err)
		}
	}
	return db, p
}

// TestScopedInvalidationServesIffNoOverlap: in both append modes
// (direct and memtable), a frontier append leaves past-window answers
// cached and invalidates exactly the answers whose window reaches the
// appended range.
func TestScopedInvalidationServesIffNoOverlap(t *testing.T) {
	for _, memtable := range []bool{false, true} {
		name := "direct"
		if memtable {
			name = "memtable"
		}
		t.Run(name, func(t *testing.T) {
			db, p := scopedFixture(t, memtable)
			ctx := context.Background()
			mid := db.Start() + db.Span()*0.5
			past := temporalrank.SumQuery(5, db.Start(), mid) // never touches the frontier
			wide := temporalrank.SumQuery(5, db.Start(), db.End()+100)

			hits := func() uint64 {
				st, ok := p.CacheStats()
				if !ok {
					t.Fatal("cache stats unavailable")
				}
				return st.Hits
			}
			mustRun := func(q temporalrank.Query) temporalrank.Answer {
				t.Helper()
				ans, err := p.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				return ans
			}

			mustRun(past) // cold miss, stores
			mustRun(wide) // cold miss, stores
			h0 := hits()
			mustRun(past)
			mustRun(wide)
			if got := hits(); got != h0+2 {
				t.Fatalf("warm re-runs: %d hits, want %d", got, h0+2)
			}

			// Frontier append: past every series end, so inside wide's
			// [start, end+100] but outside past's [start, mid]. It must
			// invalidate wide and leave past cached.
			if err := p.Append(3, db.End()+1, 42); err != nil {
				t.Fatal(err)
			}
			h1 := hits()
			mustRun(past)
			if got := hits(); got != h1+1 {
				t.Fatalf("past-window answer was invalidated by a frontier append (hits %d, want %d)", got, h1+1)
			}
			wideAns := mustRun(wide)
			if got := hits(); got != h1+1 {
				t.Fatal("frontier-covering answer served stale from cache")
			}
			if len(wideAns.Results) == 0 {
				t.Fatal("recomputed answer is empty")
			}
		})
	}
}

// TestScopedHitRatioBeatsCoarsePlanner is the end-to-end check on a
// frontier-writer mixed workload: whole-cache invalidation would miss
// after every append, scoped invalidation must keep hitting. (The
// scoped-vs-coarse A/B itself is qcache's TestDoScopedHitRatioBeatsCoarse.)
func TestScopedHitRatioBeatsCoarsePlanner(t *testing.T) {
	db, p := scopedFixture(t, true)
	ctx := context.Background()
	mid := db.Start() + db.Span()*0.5
	queries := []temporalrank.Query{
		temporalrank.SumQuery(5, db.Start(), mid),
		temporalrank.AvgQuery(3, db.Start(), mid*0.7),
		temporalrank.InstantQuery(4, mid*0.3),
	}
	tt := db.End()
	for i := 0; i < 50; i++ {
		tt += 0.5
		if err := p.Append(i%db.NumSeries(), tt, 1); err != nil {
			t.Fatal(err)
		}
		for _, q := range queries {
			if _, err := p.Run(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
	}
	st, ok := p.CacheStats()
	if !ok {
		t.Fatal("cache stats unavailable")
	}
	if scoped := st.HitRatio(); scoped < 0.9 {
		t.Fatalf("frontier writes should barely disturb past-window queries: scoped ratio %.3f", scoped)
	}
}
