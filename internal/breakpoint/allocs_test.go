// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package breakpoint

import (
	"math"
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
// probe that runs to its end.
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
	if got := testing.AllocsPerRun(1, func() {
		if _, err := Build2WithTargetR(ds, 150, true); err != nil {
			t.Fatal(err)
		}
	}); got != 33 {
		t.Errorf("Build2WithTargetR allocates %.1f allocs/op, want 33", got)
	}
}
