package temporalrank_test

import (
	"context"
	"errors"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"temporalrank"
)

// TestCompactionOutcomeReported: a background compaction has no caller
// to hand its error to, so MemtableStats must report it — and must
// survive two failures of different concrete types in a row, which the
// atomic.Value this replaced answered with a panic on the compaction
// goroutine. The planner's one index lives in a file; swapping its
// directory for a regular file makes the next generation's build fail
// with an *fs.PathError, and putting it back lets the retry succeed.
func TestCompactionOutcomeReported(t *testing.T) {
	inputs := clusterInputs(t, 6, 8, 3)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ix")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, OnDiskPath: filepath.Join(dir, "e3.idx")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	// Every append finds the flush threshold reached and starts a
	// background compaction unless one is running.
	if err := p.EnableMemtable(temporalrank.MemtableOptions{FlushSegments: 1}); err != nil {
		t.Fatal(err)
	}

	at := inputs[0].Times[len(inputs[0].Times)-1]
	appendAndSettle := func() temporalrank.MemtableStats {
		t.Helper()
		at++
		if err := p.Append(0, at, 1); err != nil {
			t.Fatal(err)
		}
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			st, ok := p.MemtableStats()
			if !ok {
				t.Fatal("memtable stats unavailable")
			}
			if !st.Compacting {
				return st
			}
			if time.Now().After(deadline) {
				t.Fatal("background compaction did not finish")
			}
		}
	}

	st := appendAndSettle()
	if st.Generations != 1 || st.LastError != nil || st.LastCompaction <= 0 {
		t.Fatalf("after a clean compaction: %+v", st)
	}

	// Break the path: the next generation's file cannot be created.
	moved := dir + ".moved"
	if err := os.Rename(dir, moved); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	st = appendAndSettle()
	var pathErr *fs.PathError
	if st.Generations != 1 || !errors.As(st.LastError, &pathErr) || st.FrozenSegments == 0 {
		t.Fatalf("after a compaction that could not write its index: %+v", st)
	}
	first := st.LastError

	// A second failure, of another concrete type, replaces the first.
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.Compact(cancelled); !errors.Is(err, context.Canceled) {
		t.Fatalf("Compact under a cancelled context: %v", err)
	}
	st, _ = p.MemtableStats()
	if !errors.Is(st.LastError, context.Canceled) {
		t.Fatalf("after a cancelled compaction: %+v", st)
	}
	if reflect.TypeOf(st.LastError) == reflect.TypeOf(first) {
		t.Fatalf("both failures are %T; the test needs two concrete types", first)
	}

	// Repair the path: the retry drains the frozen table and clears the
	// error.
	if err := os.Remove(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(moved, dir); err != nil {
		t.Fatal(err)
	}
	st = appendAndSettle()
	if st.Generations != 2 || st.LastError != nil || st.FrozenSegments != 0 {
		t.Fatalf("after the retry: %+v", st)
	}
	if err := p.Compact(context.Background()); err != nil {
		t.Fatal(err)
	}
	if st, _ = p.MemtableStats(); st.ActiveSegments != 0 || st.LastError != nil {
		t.Fatalf("not drained: %+v", st)
	}
}

// TestCompactionRemovesSupersededIndexFiles: every compaction of an
// on-disk index builds the next generation in a file of its own; once
// that generation is installed, the superseded file is unlinked, so the
// directory never holds more than one file per index.
func TestCompactionRemovesSupersededIndexFiles(t *testing.T) {
	inputs := clusterInputs(t, 12, 10, 5)
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, OnDiskPath: filepath.Join(dir, "e3.idx")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, ix)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	tEnd := db.End()
	for gen := 1; gen <= 5; gen++ {
		for id := 0; id < db.NumSeries(); id += 3 {
			tEnd++
			if err := p.Append(id, tEnd, float64(gen*id)); err != nil {
				t.Fatal(err)
			}
			if err := ref.Append(id, tEnd, float64(gen*id)); err != nil {
				t.Fatal(err)
			}
		}
		if err := p.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 {
			names := make([]string, len(entries))
			for i, e := range entries {
				names[i] = e.Name()
			}
			t.Fatalf("after compaction %d the directory holds %v, want one index file", gen, names)
		}
		q := temporalrank.SumQuery(4, ref.Start(), ref.End())
		got, err := p.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.Run(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		sameRanking(t, "compacted on-disk index", got.Results, want.Results)
	}
}

// TestFailedCompactionRemovesSiblingIndexFiles: when one on-disk index
// of a planner fails to rebuild, the compaction's per-generation files
// of the indexes that did build are unlinked too, so retries do not
// pile up orphaned files.
func TestFailedCompactionRemovesSiblingIndexFiles(t *testing.T) {
	db, err := temporalrank.NewDB(clusterInputs(t, 12, 10, 5))
	if err != nil {
		t.Fatal(err)
	}
	dirA, dirB := t.TempDir(), t.TempDir()
	e3, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, OnDiskPath: filepath.Join(dirA, "a.idx")})
	if err != nil {
		t.Fatal(err)
	}
	e1, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact1, OnDiskPath: filepath.Join(dirB, "b.idx")})
	if err != nil {
		t.Fatal(err)
	}
	p, err := temporalrank.NewPlanner(db, e3, e1)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(0, db.End()+1, 5); err != nil {
		t.Fatal(err)
	}
	// EXACT1's next generation cannot be created once its directory is
	// gone; EXACT3's builds fine each time.
	if err := os.RemoveAll(dirB); err != nil {
		t.Fatal(err)
	}
	for attempt := 1; attempt <= 3; attempt++ {
		if err := p.Compact(context.Background()); err == nil {
			t.Fatalf("attempt %d: compaction succeeded without EXACT1's directory", attempt)
		}
		entries, err := os.ReadDir(dirA)
		if err != nil {
			t.Fatal(err)
		}
		names := make([]string, len(entries))
		for i, e := range entries {
			names[i] = e.Name()
		}
		if len(names) != 1 || names[0] != "a.idx" {
			t.Fatalf("after failed compaction %d the directory holds %v, want only a.idx", attempt, names)
		}
	}
}

// TestAppendOverflowRefused: an append whose segment area overflows
// float64 is refused, so no compaction folds an infinite integral into
// the base, where EXACT3 would score Inf − Inf = NaN. It replays the
// probe: the overflowing append, a compaction, an ordinary append far
// past the end, a second compaction, then windows before, across and
// past the refused segment.
func TestAppendOverflowRefused(t *testing.T) {
	db, err := temporalrank.NewDB([]temporalrank.SeriesInput{
		{Times: []float64{0, 10, 20}, Values: []float64{1, 4, 2}},
		{Times: []float64{0, 20}, Values: []float64{3, 3}},
		{Times: []float64{0, 5, 20}, Values: []float64{2, 0, 5}},
	})
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
	if err := p.EnableMemtable(temporalrank.MemtableOptions{DisableAutoCompact: true}); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if err := p.Append(0, db.End()+1e10, 1e308); err == nil {
		t.Fatal("an append whose segment area overflows float64 was accepted")
	}
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	if err := p.Append(0, 2e10, 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Compact(ctx); err != nil {
		t.Fatal(err)
	}
	for _, w := range [][2]float64{{0, 1e10}, {1e9, 2e9}, {1.5e10, 2e10}, {5, 2e10}} {
		ans, err := p.Run(ctx, temporalrank.SumQuery(3, w[0], w[1]))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range ans.Results {
			if math.IsNaN(r.Score) || math.IsInf(r.Score, 0) {
				t.Fatalf("window [%g, %g]: object %d scores %g", w[0], w[1], r.ID, r.Score)
			}
		}
	}
}
