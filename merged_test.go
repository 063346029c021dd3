package temporalrank_test

import (
	"context"
	"errors"
	"math"
	"testing"

	"temporalrank"
)

// checkExactIDs is checkExact plus the IDs, rank by rank: they must
// match wherever the reference score at that rank is not tied with a
// neighbour's.
func checkExactIDs(t *testing.T, label string, got, want temporalrank.Answer) {
	t.Helper()
	checkExact(t, label, got, want)
	tied := func(j int) bool {
		w := want.Results[j].Score
		for _, n := range []int{j - 1, j + 1} {
			if n >= 0 && n < len(want.Results) && math.Abs(want.Results[n].Score-w) <= 1e-9*math.Max(1, math.Abs(w)) {
				return true
			}
		}
		return false
	}
	for j := range want.Results {
		if got.Results[j].ID != want.Results[j].ID && !tied(j) {
			t.Fatalf("%s rank %d: id %d, want %d (score %g)", label, j, got.Results[j].ID, want.Results[j].ID, want.Results[j].Score)
		}
	}
}

// TestMergedExact3Equivalence drives the σ-vector merge with both
// memtable tables non-empty: a compaction cancelled after it froze the
// first batch of appends leaves that table frozen, as a compaction still
// running would, and a second batch fills the active table.
// Sum and avg windows start inside the frozen runs and end inside the
// active ones; a tolerant query whose k+|A| exceeds APPX2+'s KMax goes
// to EXACT3 too. Every answer must match brute force over the same
// appends, and report the IOs of EXACT3's two stabs over the base.
func TestMergedExact3Equivalence(t *testing.T) {
	const kmax = 4
	inputs := clusterInputs(t, 40, 20, 5)
	st := newMixedState(t, inputs, 9)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	e3, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	a2p, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodAppx2P, TargetR: 16, KMax: kmax})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, e3, a2p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}

	// Windows start between the earliest and the latest base series end,
	// inside the frozen runs of the series that ended early, and end past
	// where the frozen batch reached, inside active runs.
	baseLo, baseHi := math.Inf(1), db.End()
	for _, in := range inputs {
		baseLo = math.Min(baseLo, in.Times[len(in.Times)-1])
	}
	for i := 0; i < 300; i++ {
		st.append(p, "frozen batch")
	}
	frozenEnd := st.ref.End()
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Compact(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact under a cancelled context: %v", err)
	}
	for i := 0; i < 300; i++ {
		st.append(p, "active batch")
	}
	if ms, _ := p.MemtableStats(); ms.FrozenSegments == 0 || ms.ActiveSegments == 0 {
		t.Fatalf("memtable frozen %d / active %d segments, want both non-empty", ms.FrozenSegments, ms.ActiveSegments)
	}

	ctx := context.Background()
	check := func(stage string) {
		t.Helper()
		activeEnd := st.ref.End()
		base := p.Indexes()[0]
		for i := 0; i < 12; i++ {
			t1 := baseLo + (baseHi-baseLo)*float64(i+1)/14
			t2 := frozenEnd + (activeEnd-frozenEnd)*float64(i+1)/14
			for _, q := range []temporalrank.Query{
				temporalrank.SumQuery(5, t1, t2),
				temporalrank.AvgQuery(5, t1, t2),
				{K: 3, T1: t1, T2: t2, MaxEpsilon: 1},
			} {
				got, err := p.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				want, err := st.ref.Run(ctx, q)
				if err != nil {
					t.Fatal(err)
				}
				label := stage + " " + string(q.Agg)
				if got.Method != temporalrank.MethodExact3 || !got.Exact || got.Epsilon != 0 {
					t.Fatalf("%s [%g,%g] ε≤%g: answered by %s (exact %v, ε %g), want exact EXACT3",
						label, t1, t2, q.MaxEpsilon, got.Method, got.Exact, got.Epsilon)
				}
				checkExactIDs(t, label, got, want)
				stabs, err := base.Run(ctx, temporalrank.SumQuery(q.K, t1, t2))
				if err != nil {
					t.Fatal(err)
				}
				if got.IOs != stabs.IOs || got.IOs == 0 {
					t.Fatalf("%s: merged answer reports %d IOs, EXACT3's two stabs cost %d", label, got.IOs, stabs.IOs)
				}
			}
		}
	}
	check("frozen+active")
	// The retry drains the frozen table only.
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if ms, _ := p.MemtableStats(); ms.FrozenSegments != 0 || ms.ActiveSegments == 0 {
		t.Fatalf("after the retry: memtable frozen %d / active %d segments", ms.FrozenSegments, ms.ActiveSegments)
	}
	check("compacted+active")
}
