// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package approx

import (
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
)

// TestTopKAllocs pins APPX2+'s and APPX2's queries at exactly one
// allocation, the top-k result slice: the cover walk uses a fixed stack,
// lists are decoded in place from page views into the pooled merge
// accumulator, rescoring views pages of the packed runs, and the
// collector is pooled.
func TestTopKAllocs(t *testing.T) {
	ds := randomDataset(31, 300, 40, false)
	bps, err := breakpoint.Build2WithTargetR(ds, 60, true)
	if err != nil {
		t.Fatal(err)
	}
	a2p, err := NewAppx2PlusWithBreaks(blockio.NewViewOnlyDevice(1024), ds, KindB2, bps, 20)
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := ds.Start(), ds.End()
	for _, c := range []struct {
		name string
		topK func(k int, t1, t2 float64) (int, error)
	}{
		{"Appx2Plus.TopK", func(k int, t1, t2 float64) (int, error) { items, err := a2p.TopK(k, t1, t2); return len(items), err }},
		{"Query2.TopK", func(k int, t1, t2 float64) (int, error) { items, err := a2p.q.TopK(k, t1, t2); return len(items), err }},
	} {
		i := 0
		got := testing.AllocsPerRun(200, func() {
			t1 := lo + (hi-lo)*float64(i%8)/16
			i++
			n, err := c.topK(10, t1, t1+(hi-lo)/3)
			if err != nil {
				t.Fatal(err)
			}
			if n != 10 {
				t.Fatalf("%s: got %d items, want 10", c.name, n)
			}
		})
		if got != 1 {
			t.Errorf("%s allocates %.1f allocs/op, want 1", c.name, got)
		}
	}
}
