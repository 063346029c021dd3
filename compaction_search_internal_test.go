package temporalrank

import (
	"context"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"temporalrank/internal/breakpoint"
	"temporalrank/internal/gen"
)

// countSearches makes buildIndex count the compaction builds that
// search for ε (an approximate method built from TargetR) until the
// test ends.
func countSearches(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	orig := buildIndex
	buildIndex = func(db *DB, opts Options) (*Index, error) {
		if opts.Method.IsApprox() && opts.Epsilon <= 0 {
			n.Add(1)
		}
		return orig(db, opts)
	}
	t.Cleanup(func() { buildIndex = orig })
	return &n
}

// searchPlanner is a planner over EXACT3 and an APPX2+ built from
// TargetR, compacting only when told to.
func searchPlanner(t *testing.T) *Planner {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 30, Navg: 25, Seed: 11, Span: 200})
	if err != nil {
		t.Fatal(err)
	}
	db := NewDBFromDataset(ds)
	e3, err := db.BuildIndex(Options{Method: MethodExact3})
	if err != nil {
		t.Fatal(err)
	}
	a2p, err := db.BuildIndex(Options{Method: MethodAppx2P, TargetR: 24, KMax: 8})
	if err != nil {
		t.Fatal(err)
	}
	p, err := NewPlanner(db, e3, a2p)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableMemtable(MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	return p
}

// appxOf returns the planner's APPX2+ index and its breakpoint set.
func appxOf(t *testing.T, p *Planner) (*Index, *breakpoint.Set) {
	t.Helper()
	for _, ix := range p.Indexes() {
		if ix.Method() == MethodAppx2P {
			return ix, ix.m.(interface{ Breaks() *breakpoint.Set }).Breaks()
		}
	}
	t.Fatal("planner has no APPX2+ index")
	return nil, nil
}

// growAll appends to every planner the same vertex per series: step
// past the series' end, at value v. The planners must hold the same
// data.
func growAll(t *testing.T, step, v float64, ps ...*Planner) {
	t.Helper()
	for id := 0; id < ps[0].DB().NumSeries(); id++ {
		end, _, _ := ps[0].ingest.frontier(id)
		for _, p := range ps {
			if err := p.Append(id, end+step, v); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// compactCounting compacts p and returns how many ε searches it ran.
func compactCounting(t *testing.T, p *Planner, searches *atomic.Int64) int64 {
	t.Helper()
	before := searches.Load()
	if err := p.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	return searches.Load() - before
}

// TestCompactionSearchRule: a compaction rebuilds APPX2+ at the
// previous generation's ε with no search while the dataset's M stays
// under twice the M of the last search, and runs exactly one search once
// M has doubled. A planner restored from a checkpoint follows the same
// rule, so it and the planner that wrote the checkpoint, fed the same
// appends, build identical APPX2+ indexes at every compaction.
func TestCompactionSearchRule(t *testing.T) {
	searches := countSearches(t)
	fresh := searchPlanner(t)
	path := filepath.Join(t.TempDir(), "fresh.trsnap")
	if err := fresh.Checkpoint(path); err != nil {
		t.Fatal(err)
	}
	restored, err := OpenSnapshot(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := restored.EnableMemtable(MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	m0 := fresh.DB().ds.M()
	_, bps0 := appxOf(t, fresh)

	// agree checks that both planners hold the same APPX2+ index, with
	// the last search at mass searchM, and answer tolerant queries alike.
	agree := func(stage string, searchM float64) {
		t.Helper()
		fix, fb := appxOf(t, fresh)
		rix, rb := appxOf(t, restored)
		if !reflect.DeepEqual(fb, rb) {
			t.Fatalf("%s: breakpoints differ: fresh ε %g M %g r %d, restored ε %g M %g r %d",
				stage, fb.Epsilon, fb.M, fb.R(), rb.Epsilon, rb.M, rb.R())
		}
		for _, ix := range []*Index{fix, rix} {
			if ix.searchM != searchM || ix.searchR != 24 || ix.opts.Epsilon != 0 {
				t.Fatalf("%s: search record (M %g, r %d, opts.Epsilon %g), want (%g, 24, 0)",
					stage, ix.searchM, ix.searchR, ix.opts.Epsilon, searchM)
			}
		}
		ctx := context.Background()
		lo, span := fresh.DB().Start(), fresh.DB().Span()
		for i := 0; i < 8; i++ {
			t1 := lo + span*float64(i)/10
			q := Query{K: 5, T1: t1, T2: t1 + span/5, MaxEpsilon: 1}
			fa, err := fresh.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			ra, err := restored.Run(ctx, q)
			if err != nil {
				t.Fatal(err)
			}
			if fa.Method != MethodAppx2P || ra.Method != MethodAppx2P {
				t.Fatalf("%s: tolerant query answered by %s and %s, want APPX2+", stage, fa.Method, ra.Method)
			}
			if !reflect.DeepEqual(fa.Results, ra.Results) || fa.Epsilon != ra.Epsilon {
				t.Fatalf("%s: query %d: fresh %v (ε %g), restored %v (ε %g)", stage, i, fa.Results, fa.Epsilon, ra.Results, ra.Epsilon)
			}
		}
	}
	agree("restored", m0)

	growAll(t, 1, 1, fresh, restored)
	for _, p := range []*Planner{fresh, restored} {
		if n := compactCounting(t, p, searches); n != 0 {
			t.Fatalf("compaction below 2·M ran %d ε searches, want 0", n)
		}
	}
	if m1 := fresh.DB().ds.M(); m1 >= 2*m0 || m1 <= m0 {
		t.Fatalf("M went from %g to %g: the test means to stay below doubling", m0, m1)
	}
	agree("below 2·M", m0)
	if _, bps1 := appxOf(t, fresh); bps1.Epsilon != bps0.Epsilon {
		t.Fatalf("ε moved from %g to %g without a search", bps0.Epsilon, bps1.Epsilon)
	}

	// One vertex far out at a large value adds more mass than the whole
	// dataset holds.
	growAll(t, 10, 4*m0/float64(fresh.DB().NumSeries()), fresh, restored)
	for _, p := range []*Planner{fresh, restored} {
		if n := compactCounting(t, p, searches); n != 1 {
			t.Fatalf("compaction past 2·M ran %d ε searches, want 1", n)
		}
	}
	m2 := fresh.DB().ds.M()
	if m2 < 2*m0 {
		t.Fatalf("M went from %g to %g: the test means to pass doubling", m0, m2)
	}
	agree("past 2·M", m2)
}
