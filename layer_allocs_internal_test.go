// The race detector instruments allocations, so the count only holds in
// a normal build.
//
//go:build !race

package temporalrank

import (
	"testing"

	"temporalrank/internal/memtable"
)

// TestLayerAppendAllocs pins a layer append to a series that already
// has a run at zero allocations, with every series holding 1,024
// segments first as in memtable's TestReadWriteAllocs: a block move
// that takes a new arena chunk is the only allocation, a few over 200
// runs, which AllocsPerRun's integer average reports as 0.
func TestLayerAppendAllocs(t *testing.T) {
	const series = 8
	l := newLayer(&generation[struct{}]{Active: memtable.NewTable(flatFrontier(series, 10, 1), 0)})
	ts := 10.0
	for i := 0; i < 1024; i++ {
		ts++
		for id := 0; id < series; id++ {
			if _, err := l.Append(id, ts, float64(id)); err != nil {
				t.Fatal(err)
			}
		}
	}
	i := 0
	got := testing.AllocsPerRun(200, func() {
		ts++
		if _, err := l.Append(i%series, ts, 2); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if got != 0 {
		t.Errorf("layer append allocates %.1f allocs/op, want 0", got)
	}
}
