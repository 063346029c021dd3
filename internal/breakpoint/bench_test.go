package breakpoint

import (
	"testing"

	"temporalrank/internal/gen"
)

// BenchmarkBuild2WithTargetR is the breakpoint stage of an index build
// at the shard shape a compaction rebuilds (1,000 × 100, r = 150).
func BenchmarkBuild2WithTargetR(b *testing.B) {
	ds, err := gen.Temp(gen.TempConfig{M: 1000, Navg: 100, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for b.Loop() {
		if _, err := Build2WithTargetR(ds, 150, true); err != nil {
			b.Fatal(err)
		}
	}
}
