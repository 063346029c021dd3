// The dynamic backstop for the //tr:hotpath annotations: the static
// hotalloc analyzer waives sanctioned allocations line by line, and
// these tests prove the waivers honest by measuring the read path end
// to end, cached and uncached. CI enforces the cached property on
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

// plannerRunAllocs warms a rotation of eight distinct queries through
// a benchPlanner with the given result-cache size, then reports the
// steady-state allocations per Planner.Run over that rotation.
func plannerRunAllocs(t *testing.T, resultCache int) float64 {
	t.Helper()
	ctx := context.Background()
	db, p := benchPlanner(t, resultCache)
	span := db.Span()
	qs := make([]temporalrank.Query, 8)
	for i := range qs {
		t1 := db.Start() + span*float64(i)/16
		qs[i] = temporalrank.SumQuery(10, t1, t1+span/4)
	}
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
