package itree

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"temporalrank/internal/blockio"
)

func payload(id uint32) []byte {
	b := make([]byte, 4)
	binary.LittleEndian.PutUint32(b, id)
	return b
}

func payloadID(b []byte) uint32 { return binary.LittleEndian.Uint32(b) }

func stabIDs(t *testing.T, tr *Tree, x float64) []uint32 {
	t.Helper()
	var ids []uint32
	err := tr.Stab(x, func(iv Interval) bool {
		ids = append(ids, payloadID(iv.Payload))
		return true
	})
	if err != nil {
		t.Fatalf("Stab(%g): %v", x, err)
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func bruteStab(ivs []Interval, x float64) []uint32 {
	var ids []uint32
	for _, iv := range ivs {
		if iv.Contains(x) {
			ids = append(ids, payloadID(iv.Payload))
		}
	}
	sort.Slice(ids, func(a, b int) bool { return ids[a] < ids[b] })
	return ids
}

func eqIDs(a, b []uint32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestEmptyTree(t *testing.T) {
	tr, err := Build(blockio.NewViewOnlyDevice(256), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := stabIDs(t, tr, 5); len(got) != 0 {
		t.Errorf("stab on empty returned %v", got)
	}
}

func TestSingleInterval(t *testing.T) {
	ivs := []Interval{{Lo: 1, Hi: 3, Payload: payload(7)}}
	tr, err := Build(blockio.NewViewOnlyDevice(256), 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if got := stabIDs(t, tr, 2); !eqIDs(got, []uint32{7}) {
		t.Errorf("stab(2) = %v", got)
	}
	if got := stabIDs(t, tr, 1); !eqIDs(got, []uint32{7}) {
		t.Errorf("stab(1) = %v (lo is inclusive)", got)
	}
	if got := stabIDs(t, tr, 3); len(got) != 0 {
		t.Errorf("stab(3) = %v (hi is exclusive)", got)
	}
	if got := stabIDs(t, tr, 0); len(got) != 0 {
		t.Errorf("stab(0) = %v", got)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build(blockio.NewViewOnlyDevice(256), 4, []Interval{{Lo: 2, Hi: 2, Payload: payload(0)}}); err == nil {
		t.Error("degenerate interval accepted")
	}
	if _, err := Build(blockio.NewViewOnlyDevice(256), 4, []Interval{{Lo: 0, Hi: 1, Payload: make([]byte, 8)}}); err == nil {
		t.Error("wrong payload size accepted")
	}
	if _, err := Build(blockio.NewViewOnlyDevice(16), 4, []Interval{{Lo: 0, Hi: 1, Payload: payload(0)}}); err == nil {
		t.Error("tiny block size accepted")
	}
}

func TestDisjointPartitionPerObject(t *testing.T) {
	// Model the EXACT3 use: each of m objects contributes a partition
	// of [0, 100); stabbing anywhere must return exactly one interval
	// per object.
	rng := rand.New(rand.NewSource(1))
	const m = 40
	var ivs []Interval
	for obj := 0; obj < m; obj++ {
		cuts := []float64{0}
		for c := rng.Float64() * 10; c < 100; c += 0.5 + rng.Float64()*10 {
			cuts = append(cuts, c)
		}
		cuts = append(cuts, 100)
		for j := 0; j+1 < len(cuts); j++ {
			ivs = append(ivs, Interval{Lo: cuts[j], Hi: cuts[j+1], Payload: payload(uint32(obj))})
		}
	}
	tr, err := Build(blockio.NewViewOnlyDevice(512), 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	for probe := 0; probe < 200; probe++ {
		x := rng.Float64() * 99.99
		got := stabIDs(t, tr, x)
		if len(got) != m {
			t.Fatalf("stab(%g) returned %d intervals, want %d", x, len(got), m)
		}
		for i, id := range got {
			if id != uint32(i) {
				t.Fatalf("stab(%g): object %d missing", x, i)
			}
		}
	}
}

func TestStabMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(300)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := rng.Float64() * 100
			ivs[i] = Interval{Lo: lo, Hi: lo + 0.01 + rng.Float64()*30, Payload: payload(uint32(i))}
		}
		tr, err := Build(blockio.NewViewOnlyDevice(256), 4, ivs)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tr.Len() != n {
			t.Fatalf("Len = %d, want %d", tr.Len(), n)
		}
		for probe := 0; probe < 50; probe++ {
			x := rng.Float64()*140 - 10
			got := stabIDs(t, tr, x)
			want := bruteStab(ivs, x)
			if !eqIDs(got, want) {
				t.Fatalf("trial %d stab(%g): got %d ids, want %d", trial, x, len(got), len(want))
			}
		}
		// Also probe exact endpoints (boundary semantics).
		for probe := 0; probe < 20; probe++ {
			iv := ivs[rng.Intn(n)]
			for _, x := range []float64{iv.Lo, iv.Hi} {
				if !eqIDs(stabIDs(t, tr, x), bruteStab(ivs, x)) {
					t.Fatalf("trial %d endpoint stab(%g) mismatch", trial, x)
				}
			}
		}
	}
}

func TestStabEarlyExit(t *testing.T) {
	var ivs []Interval
	for i := 0; i < 50; i++ {
		ivs = append(ivs, Interval{Lo: 0, Hi: 100, Payload: payload(uint32(i))})
	}
	tr, err := Build(blockio.NewViewOnlyDevice(256), 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	err = tr.Stab(50, func(iv Interval) bool {
		count++
		return count < 5
	})
	if err != nil {
		t.Fatal(err)
	}
	if count != 5 {
		t.Errorf("early exit visited %d, want 5", count)
	}
}

func TestIdenticalIntervals(t *testing.T) {
	var ivs []Interval
	for i := 0; i < 30; i++ {
		ivs = append(ivs, Interval{Lo: 5, Hi: 10, Payload: payload(uint32(i))})
	}
	tr, err := Build(blockio.NewViewOnlyDevice(128), 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if got := stabIDs(t, tr, 7); len(got) != 30 {
		t.Errorf("identical intervals: stab found %d, want 30", len(got))
	}
	if got := stabIDs(t, tr, 10); len(got) != 0 {
		t.Errorf("hi-exclusive violated: %v", got)
	}
}

func TestHeightLogarithmic(t *testing.T) {
	// Disjoint intervals -> pure binary splits; height ~ log2(n).
	var ivs []Interval
	n := 1024
	for i := 0; i < n; i++ {
		ivs = append(ivs, Interval{Lo: float64(i), Hi: float64(i) + 0.5, Payload: payload(uint32(i))})
	}
	tr, err := Build(blockio.NewViewOnlyDevice(4096), 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Height() > 2*11 {
		t.Errorf("height = %d for %d disjoint intervals, want O(log n)", tr.Height(), n)
	}
}

func TestStabIOBounded(t *testing.T) {
	// For a per-object partition, a stab costs O(height + m/listCap)
	// page reads, far below reading the whole structure.
	dev := blockio.NewViewOnlyDevice(4096)
	var ivs []Interval
	const m = 100
	for obj := 0; obj < m; obj++ {
		for j := 0; j < 100; j++ {
			ivs = append(ivs, Interval{Lo: float64(j), Hi: float64(j + 1), Payload: payload(uint32(obj))})
		}
	}
	tr, err := Build(dev, 4, ivs)
	if err != nil {
		t.Fatal(err)
	}
	total := dev.NumPages()
	dev.ResetStats()
	_ = stabIDs(t, tr, 42.5)
	reads := int(dev.Stats().Reads)
	if reads > total/10 {
		t.Errorf("stab read %d of %d pages; want a small fraction", reads, total)
	}
}

// Property: stab equals brute force on random inputs (quick-check
// sized-down version of the table test above).
func TestStabBruteForceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(60)
		ivs := make([]Interval, n)
		for i := range ivs {
			lo := math.Floor(rng.Float64()*40) / 2
			ivs[i] = Interval{Lo: lo, Hi: lo + 0.5 + math.Floor(rng.Float64()*20)/2, Payload: payload(uint32(i))}
		}
		tr, err := Build(blockio.NewViewOnlyDevice(128), 4, ivs)
		if err != nil {
			return false
		}
		for probe := 0; probe < 25; probe++ {
			x := math.Floor(rng.Float64()*100)/2 - 5
			var got []uint32
			if err := tr.Stab(x, func(iv Interval) bool {
				got = append(got, payloadID(iv.Payload))
				return true
			}); err != nil {
				return false
			}
			sort.Slice(got, func(a, b int) bool { return got[a] < got[b] })
			if !eqIDs(got, bruteStab(ivs, x)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
