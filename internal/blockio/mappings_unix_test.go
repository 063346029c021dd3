//go:build unix

package blockio_test

import (
	"context"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"temporalrank"
	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
)

// TestCompactionsReleaseMappings: every compaction of an on-disk EXACT3
// planner builds its next generation in a new file and unlinks the old
// one, whose mapping stays mapped only while something references it.
// After 20 compactions, each followed by a query that maps the new
// generation, and a GC, one or two mappings stay live for the one
// index: the serving generation's is, as the planner still holds it.
func TestCompactionsReleaseMappings(t *testing.T) {
	ctx := context.Background()
	p, end := onDiskPlanner(t, filepath.Join(t.TempDir(), "e3.idx"))
	q := temporalrank.SumQuery(5, 0, end)
	for i := 0; i < 20; i++ {
		end++
		if err := p.Append(i%10, end, 1); err != nil {
			t.Fatal(err)
		}
		if err := p.Compact(ctx); err != nil {
			t.Fatal(err)
		}
		q.T2 = end
		if _, err := p.Run(ctx, q); err != nil {
			t.Fatal(err)
		}
	}
	// Cleanups run on their own goroutine after the GC that finds the
	// mapping unreachable.
	live := blockio.LiveMappings()
	for deadline := time.Now().Add(5 * time.Second); live > 2 && time.Now().Before(deadline); live = blockio.LiveMappings() {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if live > 2 || live < 1 {
		t.Fatalf("%d mappings live after 20 compactions of one on-disk index, want 1 or 2", live)
	}
	if st, _ := p.MemtableStats(); st.Generations != 20 {
		t.Fatalf("%d generations, want 20", st.Generations)
	}
	runtime.KeepAlive(p)
}

// onDiskPlanner builds a planner over one EXACT3 index stored at path,
// with a memtable that compacts only when asked, and returns it with
// the last time every series reaches.
func onDiskPlanner(t *testing.T, path string) (*temporalrank.Planner, float64) {
	t.Helper()
	ds, err := gen.RandomWalk(gen.RandomWalkConfig{M: 10, Navg: 20, Seed: 3, Span: 300})
	if err != nil {
		t.Fatal(err)
	}
	inputs := make([]temporalrank.SeriesInput, ds.NumSeries())
	for i, s := range ds.AllSeries() {
		for j := 0; j <= s.NumSegments(); j++ {
			inputs[i].Times = append(inputs[i].Times, s.VertexTime(j))
			inputs[i].Values = append(inputs[i].Values, s.VertexValue(j))
		}
	}
	db, err := temporalrank.NewDB(inputs)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := db.BuildIndex(temporalrank.Options{Method: temporalrank.MethodExact3, OnDiskPath: path})
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
	return p, ds.End()
}
