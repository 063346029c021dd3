package tsdata_test

import (
	"testing"

	"temporalrank/internal/gen"
)

// BenchmarkFlatSegments is the sort stage of an index build at the
// shard shape a compaction rebuilds (1,000 × 100) and at the
// benchmark's D-large (8,000 × 100).
func BenchmarkFlatSegments(b *testing.B) {
	for _, sh := range []struct {
		name string
		m    int
	}{{"shard", 1000}, {"dlarge", 8000}} {
		b.Run(sh.name, func(b *testing.B) {
			ds, err := gen.Temp(gen.TempConfig{M: sh.m, Navg: 100, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if got := ds.FlatSegments(); len(got) != ds.NumSegments() {
					b.Fatalf("%d refs for %d segments", len(got), ds.NumSegments())
				}
			}
		})
	}
}
