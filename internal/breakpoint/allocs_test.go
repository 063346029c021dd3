// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package breakpoint

import (
	"math"
	"runtime"
	"runtime/debug"
	"testing"

	"temporalrank/internal/gen"
)

// TestBuild2Allocs pins what BREAKPOINTS2 allocates. One pass on a warm
// sweep, Build2's or Build2Baseline's, allocates the Set it returns and
// its Times clone, nothing per breakpoint or per object. A whole ε
// search at the shard shape a compaction rebuilds adds the sweep (its
// state, keys and live list, the time-ordered segments and their merge
// scratch), the growth of its Times scratch, and two allocations per
// probe that runs to its end: 33 on one core. On two it adds the
// speculation (a second sweep's state, keys, live list and Times
// scratch, and the goroutine's channels) and FlatSegments' goroutine:
// 49. testing.AllocsPerRun runs on one core, so the two-core search is
// counted from the runtime's statistics instead, as the least of a few
// searches: the scheduler allocates a goroutine or a wait record now
// and then on its own account, and that is not the search's.
//
// A search allocates about 8 MB, enough to start a collection, and the
// runtime's own allocations while it starts its mark workers would
// count against the search; the collector is off while this test
// measures.
func TestBuild2Allocs(t *testing.T) {
	ds, err := gen.Temp(gen.TempConfig{M: 1000, Navg: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	sw := newSweep(ds)
	for _, baseline := range []bool{false, true} {
		pass := func() {
			if _, err := sw.build2(1e-3, baseline, math.MaxInt); err != nil {
				t.Fatal(err)
			}
		}
		pass() // warms the scratch this pass needs
		if got := testing.AllocsPerRun(3, pass); got != 2 {
			t.Errorf("one pass (baseline=%v) allocates %.1f allocs/op, want 2", baseline, got)
		}
	}
	search := func() {
		if _, err := Build2WithTargetR(ds, 150, true); err != nil {
			t.Fatal(err)
		}
	}
	if got := testing.AllocsPerRun(1, search); got != 33 {
		t.Errorf("Build2WithTargetR on one core allocates %.1f allocs/op, want 33", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	least := uint64(math.MaxUint64)
	for range 5 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		search()
		runtime.ReadMemStats(&after)
		least = min(least, after.Mallocs-before.Mallocs)
	}
	if least != 49 {
		t.Errorf("Build2WithTargetR on two cores allocates %d allocs/op, want 49", least)
	}
}
