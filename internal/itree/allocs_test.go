// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package itree

import (
	"math/rand"
	"testing"

	"temporalrank/internal/blockio"
)

// TestStabAllocs pins both stab forms at zero allocations: StabRuns
// over multi-page lists, charged to a count of its own and folded, where the last page's run ends inside the page,
// and Stab's per-record visits on top of it. Every object partitions
// the domain, so each stab reports exactly one interval per object.
func TestStabAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	const m = 200
	var ivs []Interval
	for obj := 0; obj < m; obj++ {
		lo := 0.0
		for hi := rng.Float64() * 5; hi < 100; hi += 0.5 + rng.Float64()*5 {
			ivs = append(ivs, Interval{Lo: lo, Hi: hi, Payload: payload(uint32(obj))})
			lo = hi
		}
		ivs = append(ivs, Interval{Lo: lo, Hi: 100, Payload: payload(uint32(obj))})
	}
	dev := blockio.NewViewOnlyDevice(512)
	tr, err := Build(dev, 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	stride := tr.RecordSize()
	var reported int
	countRun := func(recs []byte) bool { reported += len(recs) / stride; return true }
	countOne := func(Interval) bool { reported++; return true }
	for _, tc := range []struct {
		name string
		stab func(x float64) error
	}{
		{"StabRuns", func(x float64) error {
			var ios blockio.IOCount
			err := tr.StabRuns(x, &ios, countRun)
			ios.Fold(dev)
			return err
		}},
		{"Stab", func(x float64) error { return tr.Stab(x, countOne) }},
	} {
		i := 0
		got := testing.AllocsPerRun(100, func() {
			reported = 0
			if err := tc.stab(float64(i%97) + 0.5); err != nil {
				t.Fatal(err)
			}
			i++
			if reported != m {
				t.Fatalf("stab reported %d intervals, want %d", reported, m)
			}
		})
		if got != 0 {
			t.Errorf("%s allocates %.1f allocs/op, want 0", tc.name, got)
		}
	}
}
