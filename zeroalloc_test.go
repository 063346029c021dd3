// Allocation counts of the serving read path, measured end to end,
// cached and uncached, on a Planner and on a Cluster's shard
// coordinator. Each count is pinned to what the path costs today, so an
// allocation added anywhere under Planner.Run or Cluster.Run fails a
// test; the packages under internal/ pin their own hot functions in
// their allocs_test.go files. CI runs every such test in a non-race
// step (go test -run Allocs ./...).
//
// The race detector instruments allocations, so the measurement only
// holds in a normal build.
//
//go:build !race

package temporalrank_test

import (
	"context"
	"math"
	"runtime"
	"testing"

	"temporalrank"
)

// plannerRunAllocs reports steadyRunAllocs for a benchPlanner with the
// given result-cache size.
func plannerRunAllocs(t *testing.T, resultCache int) float64 {
	t.Helper()
	db, p := benchPlanner(t, resultCache)
	return steadyRunAllocs(t, p, db.Start(), db.Span())
}

// steadyRunAllocs warms a rotation of eight distinct queries over the
// domain [start, start+span] through qr, then reports the steady-state
// allocations per Run over that rotation.
func steadyRunAllocs(t *testing.T, qr temporalrank.Querier, start, span float64) float64 {
	t.Helper()
	ctx := context.Background()
	qs := make([]temporalrank.Query, 8)
	for i := range qs {
		t1 := start + span*float64(i)/16
		qs[i] = temporalrank.SumQuery(10, t1, t1+span/4)
	}
	for _, q := range qs {
		if _, err := qr.Run(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	return testing.AllocsPerRun(200, func() {
		if _, err := qr.Run(ctx, qs[i%len(qs)]); err != nil {
			t.Fatal(err)
		}
		i++
	})
}

// TestPlannerCachedRunZeroAllocs asserts the steady-state cached
// Planner.Run path — cacheKey, the qcache hit, the version load —
// allocates nothing per query.
func TestPlannerCachedRunZeroAllocs(t *testing.T) {
	if allocs := plannerRunAllocs(t, 64); allocs != 0 {
		t.Errorf("cached Planner.Run allocates %.1f allocs/op, want 0", allocs)
	}
}

// TestPlannerUncachedRunAllocs pins the uncached Planner.Run: with no
// result cache every query walks the index through zero-copy page
// views, and only the top-k collector's result slice and the Answer's
// result list are allocated. A copy-based page read on this path costs a scratch
// rental per page and shows here.
func TestPlannerUncachedRunAllocs(t *testing.T) {
	if allocs := plannerRunAllocs(t, 0); allocs != 2 {
		t.Errorf("uncached Planner.Run allocates %.1f allocs/op, want 2", allocs)
	}
}

// TestClusterRunAllocs pins the shard coordinator's allocation profile
// over benchCluster's data: a cached Cluster.Run allocates nothing at
// any shard count, and an uncached one costs exactly what the scatter,
// the per-shard ID remap and the merge cost today.
func TestClusterRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		shards   int
		uncached float64
	}{{1, 2}, {2, 16}, {8, 34}} {
		c := benchCluster(t, tc.shards, 64)
		if allocs := steadyRunAllocs(t, c, c.Start(), c.End()-c.Start()); allocs != 0 {
			t.Errorf("shards=%d: cached Cluster.Run allocates %.1f allocs/op, want 0", tc.shards, allocs)
		}
		c = benchCluster(t, tc.shards, 0)
		allocs := steadyRunAllocs(t, c, c.Start(), c.End()-c.Start())
		if allocs != tc.uncached {
			t.Errorf("shards=%d: uncached Cluster.Run allocates %.1f allocs/op, want %.0f", tc.shards, allocs, tc.uncached)
		}
	}
}

// TestClusterRunAllocsMultiCore pins the uncached Cluster.Run at
// GOMAXPROCS(2), where the scatter starts a goroutine per Run with more
// than one shard: one allocation more than TestClusterRunAllocs counts,
// which testing.AllocsPerRun measures at GOMAXPROCS 1. This test counts
// the heap allocations of many Runs itself (a runtime.MemStats Mallocs
// delta, which also sees the runtime's own allocations, a few hundredths
// per Run), so it pins their mean to within a quarter.
func TestClusterRunAllocsMultiCore(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for _, tc := range []struct {
		shards   int
		uncached float64
	}{{1, 2}, {2, 17}, {8, 35}} {
		c := benchCluster(t, tc.shards, 0)
		if allocs := multiCoreRunAllocs(t, c, c.Start(), c.End()-c.Start()); math.Abs(allocs-tc.uncached) > 0.25 {
			t.Errorf("shards=%d: uncached Cluster.Run at GOMAXPROCS(2) allocates %.2f allocs/op, want %.0f", tc.shards, allocs, tc.uncached)
		}
	}
}

// multiCoreRunAllocs is steadyRunAllocs at the caller's GOMAXPROCS: the
// mean heap allocations of 1,000 Runs over the same rotation.
func multiCoreRunAllocs(t *testing.T, qr temporalrank.Querier, start, span float64) float64 {
	t.Helper()
	ctx := context.Background()
	qs := make([]temporalrank.Query, 8)
	for i := range qs {
		t1 := start + span*float64(i)/16
		qs[i] = temporalrank.SumQuery(10, t1, t1+span/4)
	}
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := qr.Run(ctx, qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(len(qs))
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	run(runs)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / runs
}

// TestPlannerMergedRunAllocs pins the σ-vector merge's allocations: a
// latest-window exact query over a memtable costs the same two
// allocations whether 50 or 500 series have runs in the window.
func TestPlannerMergedRunAllocs(t *testing.T) {
	allocs := func(affected int) float64 {
		p, qs := mergedPlanner(t, 1000, 20, affected)
		ctx := context.Background()
		for _, q := range qs {
			if _, err := p.Run(ctx, q); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		return testing.AllocsPerRun(200, func() {
			if _, err := p.Run(ctx, qs[i%len(qs)]); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	for _, affected := range []int{50, 500} {
		if got := allocs(affected); got != 2 {
			t.Errorf("merged Planner.Run allocates %.1f allocs/op at |A|=%d, want 2", got, affected)
		}
	}
}
