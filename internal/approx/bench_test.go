package approx

import (
	"math/rand"
	"sync"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/gen"
	"temporalrank/internal/tsdata"
)

// dLarge is the serving benchmark's D-large shape: 8,000 Temp-like
// series of about 100 segments, indexed by APPX2+ at r = 150 and
// kmax = 100. It is built once per test binary, since the testing
// package calls a benchmark several times and the ε search takes
// seconds.
var dLarge struct {
	once sync.Once
	ds   *tsdata.Dataset
	a2p  *Appx2Plus
	err  error
}

func dLargeAppx2Plus(b *testing.B) (*tsdata.Dataset, *Appx2Plus) {
	b.Helper()
	dLarge.once.Do(func() {
		if dLarge.ds, dLarge.err = gen.Temp(gen.TempConfig{M: 8000, Navg: 100, Seed: 7}); dLarge.err != nil {
			return
		}
		bps, err := breakpoint.Build2WithTargetR(dLarge.ds, 150, true)
		if err != nil {
			dLarge.err = err
			return
		}
		dLarge.a2p, dLarge.err = NewAppx2PlusWithBreaks(blockio.NewViewOnlyDevice(blockio.DefaultBlockSize), dLarge.ds, KindB2, bps, 100)
	})
	if dLarge.err != nil {
		b.Fatal(dLarge.err)
	}
	return dLarge.ds, dLarge.a2p
}

// BenchmarkAppx2PlusTopK times one APPX2+ top-k query on D-large with
// k = 20 over random windows.
func BenchmarkAppx2PlusTopK(b *testing.B) {
	ds, a := dLargeAppx2Plus(b)
	rng := rand.New(rand.NewSource(7))
	windows := make([][2]float64, 1024)
	for i := range windows {
		t1 := ds.Start() + rng.Float64()*ds.Span()
		windows[i] = [2]float64{t1, t1 + rng.Float64()*(ds.End()-t1)}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := windows[i%len(windows)]
		if _, err := a.TopK(20, w[0], w[1]); err != nil {
			b.Fatal(err)
		}
	}
}
