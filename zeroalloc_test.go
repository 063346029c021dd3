// The dynamic backstop for the //tr:hotpath annotations: the static
// hotalloc analyzer waives sanctioned allocations line by line, and
// these tests prove the waivers honest by measuring the read path end
// to end, cached and uncached, on a Planner and on a Cluster's shard
// coordinator. CI enforces the cached property on
// BenchmarkPlannerCachedRun/cached via -benchmem as well.
//
// The race detector instruments allocations, so the measurement only
// holds in a normal build.
//
//go:build !race

package temporalrank_test

import (
	"context"
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

// TestPlannerUncachedRunAllocs is the dynamic backstop for the pagecopy
// analyzer: with no result cache every query walks the index through
// zero-copy page views, and must stay under the 27 allocs/op the
// copy-per-page read path cost before the view conversion.
func TestPlannerUncachedRunAllocs(t *testing.T) {
	if allocs := plannerRunAllocs(t, 0); allocs >= 27 {
		t.Errorf("uncached Planner.Run allocates %.1f allocs/op, want < 27", allocs)
	}
}

// TestClusterRunAllocs pins the shard coordinator's allocation profile
// over benchCluster's data: a cached Cluster.Run allocates nothing at
// any shard count, and an uncached one stays within what the scatter,
// the per-shard ID remap and the merge cost before the coordinator was
// shared with RemoteCluster.
func TestClusterRunAllocs(t *testing.T) {
	for _, tc := range []struct {
		shards   int
		uncached float64
	}{{1, 2}, {2, 20}, {8, 38}} {
		c := benchCluster(t, tc.shards, 64)
		if allocs := steadyRunAllocs(t, c, c.Start(), c.End()-c.Start()); allocs != 0 {
			t.Errorf("shards=%d: cached Cluster.Run allocates %.1f allocs/op, want 0", tc.shards, allocs)
		}
		c = benchCluster(t, tc.shards, 0)
		allocs := steadyRunAllocs(t, c, c.Start(), c.End()-c.Start())
		if allocs > tc.uncached {
			t.Errorf("shards=%d: uncached Cluster.Run allocates %.1f allocs/op, want <= %.0f", tc.shards, allocs, tc.uncached)
		}
		t.Logf("shards=%d: uncached Cluster.Run %.1f allocs/op", tc.shards, allocs)
	}
}

// TestPlannerMergedRunAllocs pins the σ-vector merge's allocations: a
// latest-window exact query over a memtable costs the same few
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
	few, many := allocs(50), allocs(500)
	t.Logf("merged Planner.Run: %.1f allocs/op at |A|=50, %.1f at |A|=500", few, many)
	if few != many || many > 4 {
		t.Errorf("merged Planner.Run allocates %.1f allocs/op at |A|=50 and %.1f at |A|=500, want the same and <= 4", few, many)
	}
}
