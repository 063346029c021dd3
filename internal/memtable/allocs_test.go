// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package memtable

import "testing"

// TestReadWriteAllocs pins the memtable's steady state at zero
// allocations: an append to a series that already has a run, and
// every read a query makes of the table — the header check, Frontier,
// Delta, At, and the CollectRange/CollectAt scans of a window the runs
// overlap. The root package's TestLayerAppendAllocs pins the same
// append through the generation layer.
//
// Each series holds 1,024 segments before the measurement, so its block
// moves at most once in the 25 appends each gets during it. A move cuts
// the new block from the arena, which allocates only when it takes a
// new chunk: at most a few allocations over 200 runs, which
// AllocsPerRun's integer average reports as 0.
func TestReadWriteAllocs(t *testing.T) {
	const series = 8
	tb := NewTable(flatFrontier(series, 10, 1), 0)
	ts := 10.0
	for i := 0; i < 1024; i++ {
		ts++
		for id := 0; id < series; id++ {
			if _, err := tb.Append(id, ts, float64(id)); err != nil {
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
		if _, err := tb.Append(id, ts, 2); err != nil {
			t.Fatal(err)
		}
		i++
		if h, _, _, _ := tb.run(id); h == 0 {
			t.Fatal("no header for a series with a run")
		}
		ft, _, ok := tb.Frontier(id)
		sink += ft
		if !ok {
			t.Fatal("no frontier for a series with a run")
		}
		sink += tb.Delta(id, 20, ts)
		v, _ := tb.At(id, 500)
		sink += v
		tb.CollectRange(20, ts, add)
		tb.CollectAt(500, add)
	})
	if got != 0 {
		t.Errorf("memtable append + reads allocate %.1f allocs/op, want 0", got)
	}
	if sink == 0 {
		t.Error("reads saw no mass")
	}
}

// TestFirstAppendAllocs pins a fresh table's first append — the
// frontier lookup, the run's block, its header and touched entry, and
// the earliest-start update — at six allocations: the arena's first
// chunk, the chunk list, the header and touched arrays, and the two
// layouts that publish them. Each run measures a fresh table, less the
// table's own cost. Later first appends reuse all six, amortized.
func TestFirstAppendAllocs(t *testing.T) {
	front := flatFrontier(8, 10, 1)
	table := testing.AllocsPerRun(200, func() { _ = NewTable(front, 1) })
	got := testing.AllocsPerRun(200, func() {
		if _, err := NewTable(front, 1).Append(3, 11, 2); err != nil {
			t.Fatal(err)
		}
	}) - table
	if got != 6 {
		t.Errorf("first append allocates %.1f allocs/op, want 6", got)
	}
}

// TestExtendAllocs pins an append to a series that already has a run at
// zero allocations: the segment goes into the run's block, or into a
// block twice the size cut from the arena's current chunk.
func TestExtendAllocs(t *testing.T) {
	const series = 8
	tb := NewTable(flatFrontier(series, 10, 1), 0)
	ts := 10.0
	// 100 segments each: every run moves to a 256-vertex block during
	// the measurement.
	for i := 0; i < 100; i++ {
		ts++
		for id := 0; id < series; id++ {
			if _, err := tb.Append(id, ts, float64(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	got := testing.AllocsPerRun(400, func() {
		ts++
		if _, err := tb.Append(i%series, ts, 3); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got != 0 {
		t.Errorf("append to an existing run allocates %.1f allocs/op, want 0", got)
	}
}
