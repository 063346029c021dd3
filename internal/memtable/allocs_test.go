// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package memtable

import "testing"

// TestReadWriteAllocs pins the memtable's steady state at zero
// allocations: a Layer append to a series that already has a run, and
// every read a query makes of the pinned generation's table — the bloom
// probe, Frontier, Delta, At, and the CollectRange/CollectAt scans of a
// window the runs overlap.
//
// Appending grows the run's slices, amortized: each series holds 1,024
// segments before the measurement, so its slices grow at most once in
// the 25 appends each gets during it — 24 allocations over 200 runs,
// which AllocsPerRun's integer average reports as 0.
func TestReadWriteAllocs(t *testing.T) {
	const series = 8
	tb := NewTable(flatFrontier(series, 10, 1), 0)
	l := NewLayer(&Gen[struct{}]{Active: tb})
	ts := 10.0
	for i := 0; i < 1024; i++ {
		ts++
		for id := 0; id < series; id++ {
			if _, err := l.Append(id, ts, float64(id)); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sink float64
	add := func(_ int, d float64) { sink += d }
	i := 0
	got := testing.AllocsPerRun(200, func() {
		id := i % series
		ts++
		if _, err := l.Append(id, ts, 2); err != nil {
			t.Fatal(err)
		}
		i++
		g := l.Load()
		if !g.Active.MayContain(id) {
			t.Fatal("MayContain false for a series with a run")
		}
		ft, _, ok := g.Active.Frontier(id)
		sink += ft
		if !ok {
			t.Fatal("no frontier for a series with a run")
		}
		sink += g.Active.Delta(id, 20, ts)
		v, _ := g.Active.At(id, 500)
		sink += v
		g.Active.CollectRange(20, ts, add)
		g.Active.CollectAt(500, add)
	})
	if got != 0 {
		t.Errorf("memtable append + reads allocate %.1f allocs/op, want 0", got)
	}
	if sink == 0 {
		t.Error("reads saw no mass")
	}
}

// TestFirstAppendAllocs pins a series' first append — the frontier
// lookup, the new run, the bloom insert and the earliest-start update —
// at the five allocations of the run itself: tsdata.NewSeries' struct
// and its times, values and prefix slices, and the stripe map's first
// bucket. Each run measures a fresh table, less the table's own cost.
func TestFirstAppendAllocs(t *testing.T) {
	front := flatFrontier(8, 10, 1)
	table := testing.AllocsPerRun(200, func() { _ = NewTable(front, 1) })
	got := testing.AllocsPerRun(200, func() {
		if _, err := NewTable(front, 1).Append(3, 11, 2); err != nil {
			t.Fatal(err)
		}
	}) - table
	if got != 5 {
		t.Errorf("first append allocates %.1f allocs/op, want 5", got)
	}
}
