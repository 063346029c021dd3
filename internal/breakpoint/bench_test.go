package breakpoint

import (
	"testing"

	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

// benchData is each generator that feeds an index build: Temp (the
// benchmark's data), Meme (bursty objects with staggered lifetimes,
// examples/memetracker and rankbench -dataset meme) and RandomWalk
// (rankserver -gen), at the shard shape a compaction rebuilds
// (1,000 × 100) and at the benchmark's D-large (8,000 × 100).
var benchData = []struct {
	name string
	make func(m int) (*tsdata.Dataset, error)
}{
	{"temp", func(m int) (*tsdata.Dataset, error) {
		return gen.Temp(gen.TempConfig{M: m, Navg: 100, Seed: 1})
	}},
	{"meme", func(m int) (*tsdata.Dataset, error) {
		return gen.Meme(gen.MemeConfig{M: m, Navg: 100, Seed: 1})
	}},
	{"walk", func(m int) (*tsdata.Dataset, error) {
		return gen.RandomWalk(gen.RandomWalkConfig{M: m, Navg: 100, Seed: 1, Span: 1000})
	}},
}

var benchShapes = []struct {
	name string
	m    int
}{{"shard", 1000}, {"dlarge", 8000}}

// BenchmarkBuild2WithTargetR is the breakpoint stage of an index build,
// the ε search for r = 150.
func BenchmarkBuild2WithTargetR(b *testing.B) {
	for _, d := range benchData {
		for _, sh := range benchShapes {
			b.Run(d.name+"/"+sh.name, func(b *testing.B) {
				ds, err := d.make(sh.m)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				for b.Loop() {
					if _, err := Build2WithTargetR(ds, 150, true); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkBuild2 is the one BREAKPOINTS2 pass a compaction runs at
// its generation's fixed ε, at the shard shape and the ε the search
// finds for r = 150 there.
func BenchmarkBuild2(b *testing.B) {
	for _, d := range benchData {
		b.Run(d.name, func(b *testing.B) {
			ds, err := d.make(1000)
			if err != nil {
				b.Fatal(err)
			}
			s, err := Build2WithTargetR(ds, 150, true)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			for b.Loop() {
				if _, err := Build2(ds, s.Epsilon); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
