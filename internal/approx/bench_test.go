package approx

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

// benchShape is a Temp-like dataset of m series of about 100 segments
// and its BREAKPOINTS2 set for r = 150, the benchmark's budget. Each is
// built once per test binary, since the testing package calls a
// benchmark several times and the ε search takes seconds.
type benchShape struct {
	name string
	m    int
	once sync.Once
	ds   *tsdata.Dataset
	bps  *breakpoint.Set
	err  error
}

func (sh *benchShape) get(b *testing.B) (*tsdata.Dataset, *breakpoint.Set) {
	b.Helper()
	sh.once.Do(func() {
		if sh.ds, sh.err = gen.Temp(gen.TempConfig{M: sh.m, Navg: 100, Seed: 7}); sh.err != nil {
			return
		}
		sh.bps, sh.err = breakpoint.Build2WithTargetR(sh.ds, 150, true)
	})
	if sh.err != nil {
		b.Fatal(sh.err)
	}
	return sh.ds, sh.bps
}

// shard is the shape a compaction rebuilds, 1,000 series; dLarge is the
// serving benchmark's D-large shape, 8,000.
var (
	shard  = &benchShape{name: "shard", m: 1000}
	dLarge = &benchShape{name: "dlarge", m: 8000}
)

// dLargeA2P is D-large indexed by APPX2+ at kmax = 100.
var dLargeA2P struct {
	once sync.Once
	a2p  *Appx2Plus
	err  error
}

func dLargeAppx2Plus(b *testing.B) (*tsdata.Dataset, *Appx2Plus) {
	b.Helper()
	ds, bps := dLarge.get(b)
	dLargeA2P.once.Do(func() {
		dLargeA2P.a2p, dLargeA2P.err = NewAppx2PlusWithBreaks(blockio.NewViewOnlyDevice(blockio.DefaultBlockSize), ds, KindB2, bps, 100)
	})
	if dLargeA2P.err != nil {
		b.Fatal(dLargeA2P.err)
	}
	return ds, dLargeA2P.a2p
}

// BenchmarkBuildQuery2 is APPX2+'s list stage: the prefix columns at
// r = 150 breakpoints and the dyadic lists at kmax = 100, packed onto a
// fresh device.
func BenchmarkBuildQuery2(b *testing.B) {
	for _, sh := range []*benchShape{shard, dLarge} {
		b.Run(sh.name, func(b *testing.B) {
			ds, bps := sh.get(b)
			b.ReportAllocs()
			for b.Loop() {
				if _, err := BuildQuery2(blockio.NewViewOnlyDevice(blockio.DefaultBlockSize), ds, bps, 100); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// dLargeWindows returns 1,024 random query windows over ds.
func dLargeWindows(ds *tsdata.Dataset) [][2]float64 {
	rng := rand.New(rand.NewSource(7))
	windows := make([][2]float64, 1024)
	for i := range windows {
		t1 := ds.Start() + rng.Float64()*ds.Span()
		windows[i] = [2]float64{t1, t1 + rng.Float64()*(ds.End()-t1)}
	}
	return windows
}

// BenchmarkAppx2PlusTopK times one APPX2+ top-k query on D-large with
// k = 20 over random windows.
func BenchmarkAppx2PlusTopK(b *testing.B) {
	ds, a := dLargeAppx2Plus(b)
	windows := dLargeWindows(ds)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := windows[i%len(windows)]
		if _, err := a.TopK(20, w[0], w[1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAppx2PlusTopKParallel is BenchmarkAppx2PlusTopK from every
// goroutine RunParallel starts at once, all viewing one device: the
// per-query cost under concurrency (-cpu sets the goroutine count).
func BenchmarkAppx2PlusTopKParallel(b *testing.B) {
	ds, a := dLargeAppx2Plus(b)
	windows := dLargeWindows(ds)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := int(next.Add(1)) * 97
		for pb.Next() {
			w := windows[i%len(windows)]
			i++
			if _, err := a.TopK(20, w[0], w[1]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}
