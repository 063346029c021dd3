// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package breakpoint

import (
	"math"
	"runtime"
	"runtime/debug"
	"strings"
	"testing"

	"temporalrank/internal/gen"
)

// TestBuild2Allocs pins what BREAKPOINTS2 allocates. One pass on a warm
// sweep, Build2's or Build2Baseline's, allocates the Set it returns and
// its Times clone, nothing per breakpoint or per object. A whole ε
// search at the shard shape a compaction rebuilds adds the sweep (its
// state, keys, live list and Times scratch, the time-ordered segments
// and their merge scratch), the growth of its Times scratch, and two
// allocations per probe that runs to its end: 32 on one core. On two
// it adds the speculation (a second sweep's state, keys, live list and
// Times scratch, and the goroutine's channels) and FlatSegments'
// goroutine: 47. testing.AllocsPerRun runs on one core, so the two-core
// search is counted by ownAllocs, which leaves out what the scheduler
// allocates for itself, search by search.
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
	if got := testing.AllocsPerRun(1, search); got != 32 {
		t.Errorf("Build2WithTargetR on one core allocates %.1f allocs/op, want 32", got)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	for range 5 {
		if got := ownAllocs(search); got != 47 {
			t.Errorf("Build2WithTargetR on two cores allocates %d allocs/op, want 47", got)
		}
	}
}

// ownAllocs returns how many allocations fn's call makes at this
// module's own allocation sites, from a heap profile that records
// every allocation. A record counts when the innermost frame of the
// module on its stack is product code, not a test's, and the runtime
// did not allocate it for its own scheduling: runtime.acquireSudog's
// wait records, which a channel operation allocates when it parks
// while its P's cache is empty, and runtime.malg's goroutines, which a
// go statement allocates when no dead one is free for reuse. Both
// depend on timing, so MemStats.Mallocs over a two-core search varies
// from run to run; the search's own count does not. The profile misses
// an allocation below 16 bytes without pointers that fits the
// runtime's current tiny block, so the search makes none: its Times
// scratch starts with room for two breakpoints.
func ownAllocs(fn func()) int64 {
	defer func(rate int) { runtime.MemProfileRate = rate }(runtime.MemProfileRate)
	runtime.MemProfileRate = 1
	before := ownProfiled()
	fn()
	return ownProfiled() - before
}

// ownProfiled sums the heap profile's allocations at the module's own
// sites, after a collection publishes every allocation made so far.
func ownProfiled() int64 {
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	for ok := false; !ok; {
		if n, ok = runtime.MemProfile(recs, true); !ok {
			recs = make([]runtime.MemProfileRecord, n+64)
		}
	}
	recs = recs[:n]
	inModule := func(f runtime.Frame) bool {
		return strings.HasPrefix(f.Function, "temporalrank.") || strings.HasPrefix(f.Function, "temporalrank/")
	}
	var own int64
	for _, r := range recs {
		frames := runtime.CallersFrames(r.Stack())
		first, more := frames.Next()
		site := first
		for more && !inModule(site) {
			site, more = frames.Next()
		}
		if !inModule(site) || strings.HasSuffix(site.File, "_test.go") {
			continue // another module's, or a test's own
		}
		if first.Function == "runtime.acquireSudog" || first.Function == "runtime.malg" {
			continue // the scheduler's
		}
		own += r.AllocObjects
	}
	return own
}
