package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// --- fixtures --------------------------------------------------------

func randomSeries(rng *rand.Rand, id tsdata.SeriesID, n int, negative bool) *tsdata.Series {
	times := make([]float64, n+1)
	values := make([]float64, n+1)
	t := rng.Float64() * 3
	for j := 0; j <= n; j++ {
		times[j] = t
		t += 0.2 + rng.Float64()*2
		v := rng.Float64() * 100
		if negative {
			v -= 50
		}
		values[j] = v
	}
	s, err := tsdata.NewSeries(id, times, values)
	if err != nil {
		panic(err)
	}
	return s
}

func randomDataset(seed int64, m, maxSegs int, negative bool) *tsdata.Dataset {
	rng := rand.New(rand.NewSource(seed))
	series := make([]*tsdata.Series, m)
	for i := 0; i < m; i++ {
		series[i] = randomSeries(rng, tsdata.SeriesID(i), 1+rng.Intn(maxSegs), negative)
	}
	d, err := tsdata.NewDataset(series)
	if err != nil {
		panic(err)
	}
	return d
}

// referenceTopK computes the ground truth with the in-memory prefix
// arrays.
func referenceTopK(ds *tsdata.Dataset, k int, t1, t2 float64) []topk.Item {
	c := topk.NewCollector(k)
	for _, s := range ds.AllSeries() {
		c.Add(s.ID, s.Range(t1, t2))
	}
	return c.Results()
}

func buildAll(t *testing.T, ds *tsdata.Dataset) []Method {
	t.Helper()
	e1, err := BuildExact1(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatalf("BuildExact1: %v", err)
	}
	e2, err := BuildExact2(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatalf("BuildExact2: %v", err)
	}
	e3, err := BuildExact3(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatalf("BuildExact3: %v", err)
	}
	return []Method{e1, e2, e3}
}

func approxEq(a, b, tol float64) bool {
	d := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	if scale < 1 {
		return d <= tol
	}
	return d <= tol*scale
}

func itemsMatch(t *testing.T, name string, got, want []topk.Item) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d items, want %d", name, len(got), len(want))
	}
	for j := range got {
		// Scores must agree tightly; IDs may legitimately differ only
		// on exact ties, which the deterministic tie-break rules out.
		if !approxEq(got[j].Score, want[j].Score, 1e-9) {
			t.Fatalf("%s rank %d: score %g, want %g", name, j, got[j].Score, want[j].Score)
		}
		if got[j].ID != want[j].ID {
			t.Fatalf("%s rank %d: ID %d, want %d (scores %g vs %g)",
				name, j, got[j].ID, want[j].ID, got[j].Score, want[j].Score)
		}
	}
}

// --- correctness -------------------------------------------------------

func TestAllMethodsMatchReference(t *testing.T) {
	ds := randomDataset(1, 60, 40, false)
	methods := buildAll(t, ds)
	rng := rand.New(rand.NewSource(2))
	span := ds.Span()
	for q := 0; q < 25; q++ {
		t1 := ds.Start() + rng.Float64()*span*0.8
		t2 := t1 + rng.Float64()*(ds.End()-t1)
		k := 1 + rng.Intn(10)
		want := referenceTopK(ds, k, t1, t2)
		for _, m := range methods {
			got, err := m.TopK(k, t1, t2)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			itemsMatch(t, m.Name(), got, want)
		}
	}
}

func TestAllMethodsNegativeScores(t *testing.T) {
	ds := randomDataset(3, 40, 25, true)
	methods := buildAll(t, ds)
	rng := rand.New(rand.NewSource(4))
	for q := 0; q < 15; q++ {
		t1 := ds.Start() + rng.Float64()*ds.Span()*0.7
		t2 := t1 + rng.Float64()*(ds.End()-t1)
		want := referenceTopK(ds, 5, t1, t2)
		for _, m := range methods {
			got, err := m.TopK(5, t1, t2)
			if err != nil {
				t.Fatalf("%s: %v", m.Name(), err)
			}
			itemsMatch(t, m.Name()+"(neg)", got, want)
		}
	}
}

func TestQueryOutsideDomain(t *testing.T) {
	ds := randomDataset(5, 10, 10, false)
	methods := buildAll(t, ds)
	cases := [][2]float64{
		{ds.Start() - 10, ds.Start() - 5}, // fully left
		{ds.End() + 5, ds.End() + 10},     // fully right
		{ds.Start() - 10, ds.End() + 10},  // covering
	}
	for _, c := range cases {
		want := referenceTopK(ds, 3, c[0], c[1])
		for _, m := range methods {
			got, err := m.TopK(3, c[0], c[1])
			if err != nil {
				t.Fatalf("%s [%g,%g]: %v", m.Name(), c[0], c[1], err)
			}
			itemsMatch(t, m.Name(), got, want)
		}
	}
}

func TestDegenerateInterval(t *testing.T) {
	ds := randomDataset(6, 10, 10, false)
	methods := buildAll(t, ds)
	mid := (ds.Start() + ds.End()) / 2
	for _, m := range methods {
		got, err := m.TopK(3, mid, mid)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		for _, it := range got {
			if it.Score != 0 {
				t.Errorf("%s: zero-width interval gave score %g", m.Name(), it.Score)
			}
		}
	}
}

func TestInvalidQueries(t *testing.T) {
	ds := randomDataset(7, 5, 5, false)
	methods := buildAll(t, ds)
	for _, m := range methods {
		if _, err := m.TopK(3, 5, 2); err == nil {
			t.Errorf("%s: inverted interval accepted", m.Name())
		}
		if _, err := m.TopK(3, math.NaN(), 2); err == nil {
			t.Errorf("%s: NaN accepted", m.Name())
		}
		if _, err := m.TopK(3, 0, math.Inf(1)); err == nil {
			t.Errorf("%s: Inf accepted", m.Name())
		}
	}
}

func TestScoreMatchesRange(t *testing.T) {
	ds := randomDataset(8, 20, 20, false)
	methods := buildAll(t, ds)
	rng := rand.New(rand.NewSource(9))
	for q := 0; q < 10; q++ {
		t1 := ds.Start() + rng.Float64()*ds.Span()/2
		t2 := t1 + rng.Float64()*(ds.End()-t1)
		id := tsdata.SeriesID(rng.Intn(ds.NumSeries()))
		want := ds.Series(id).Range(t1, t2)
		for _, m := range methods {
			got, err := m.Score(id, t1, t2)
			if err != nil {
				t.Fatalf("%s Score: %v", m.Name(), err)
			}
			if !approxEq(got, want, 1e-9) {
				t.Errorf("%s Score(%d) = %g, want %g", m.Name(), id, got, want)
			}
		}
	}
	// Unknown series rejected.
	for _, m := range methods {
		if _, err := m.Score(tsdata.SeriesID(999), 0, 1); err == nil {
			t.Errorf("%s: unknown series accepted", m.Name())
		}
	}
}

// --- IO behaviour -------------------------------------------------------

// TestIOOrdering verifies the paper's headline comparison: for large m,
// EXACT3 queries take far fewer IOs than EXACT2, and long intervals make
// EXACT1 the most expensive (Fig. 13c, 16a).
func TestIOOrdering(t *testing.T) {
	ds := randomDataset(14, 150, 60, false)
	e1, _ := BuildExact1(blockio.NewViewOnlyDevice(512), ds)
	e2, _ := BuildExact2(blockio.NewViewOnlyDevice(512), ds)
	e3, _ := BuildExact3(blockio.NewViewOnlyDevice(512), ds)

	t1 := ds.Start() + ds.Span()*0.2
	t2 := ds.Start() + ds.Span()*0.8 // long interval: 60% of T

	measure := func(m Method) uint64 {
		m.Device().ResetStats()
		if _, err := m.TopK(10, t1, t2); err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		return m.Device().Stats().Total()
	}
	io1, io2, io3 := measure(e1), measure(e2), measure(e3)
	if io3 >= io2 {
		t.Errorf("EXACT3 (%d IOs) should beat EXACT2 (%d IOs) at m=150", io3, io2)
	}
	if io3 >= io1 {
		t.Errorf("EXACT3 (%d IOs) should beat EXACT1 (%d IOs) on long intervals", io3, io1)
	}
}

// TestExact1IntervalSensitivity: EXACT1's IO cost grows with the query
// interval while EXACT3's does not appreciably (Fig. 16a).
func TestExact1IntervalSensitivity(t *testing.T) {
	ds := randomDataset(15, 50, 80, false)
	e1, _ := BuildExact1(blockio.NewViewOnlyDevice(512), ds)
	e3, _ := BuildExact3(blockio.NewViewOnlyDevice(512), ds)

	frac := func(m Method, f float64) uint64 {
		t1 := ds.Start() + ds.Span()*0.1
		t2 := t1 + ds.Span()*f
		m.Device().ResetStats()
		if _, err := m.TopK(10, t1, t2); err != nil {
			t.Fatal(err)
		}
		return m.Device().Stats().Total()
	}
	small1, large1 := frac(e1, 0.02), frac(e1, 0.6)
	small3, large3 := frac(e3, 0.02), frac(e3, 0.6)
	if large1 <= small1 {
		t.Errorf("EXACT1 IOs should grow with interval: %d -> %d", small1, large1)
	}
	if large3 > small3*3 {
		t.Errorf("EXACT3 IOs should be interval-insensitive: %d -> %d", small3, large3)
	}
}

func TestBuildOnFileDevice(t *testing.T) {
	ds := randomDataset(16, 20, 20, false)
	dev, err := blockio.OpenFileDevice(t.TempDir()+"/exact3.bin", 4096)
	if err != nil {
		t.Fatal(err)
	}
	defer dev.Close()
	e3, err := BuildExact3(dev, ds)
	if err != nil {
		t.Fatal(err)
	}
	want := referenceTopK(ds, 5, ds.Start(), ds.End())
	got, err := e3.TopK(5, ds.Start(), ds.End())
	if err != nil {
		t.Fatal(err)
	}
	itemsMatch(t, "EXACT3(file)", got, want)
}

func TestSingleSegmentObjects(t *testing.T) {
	// Boundary shape: every object has exactly one segment.
	series := make([]*tsdata.Series, 10)
	for i := range series {
		s, err := tsdata.NewSeries(tsdata.SeriesID(i),
			[]float64{0, 10}, []float64{float64(i), float64(i)})
		if err != nil {
			t.Fatal(err)
		}
		series[i] = s
	}
	ds, err := tsdata.NewDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	methods := buildAll(t, ds)
	want := referenceTopK(ds, 3, 2, 8)
	for _, m := range methods {
		got, err := m.TopK(3, 2, 8)
		if err != nil {
			t.Fatalf("%s: %v", m.Name(), err)
		}
		itemsMatch(t, m.Name(), got, want)
		// Highest-valued object must rank first.
		if got[0].ID != 9 {
			t.Errorf("%s: top object = %d, want 9", m.Name(), got[0].ID)
		}
	}
}

func TestExact1ExternalMatchesInMemory(t *testing.T) {
	ds := randomDataset(30, 25, 30, false)
	inMem, err := BuildExact1(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatal(err)
	}
	// Tiny budget forces run spilling and merging.
	ext, err := BuildExact1External(blockio.NewViewOnlyDevice(512), blockio.NewMemDevice(512), ds, 17)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(31))
	for q := 0; q < 15; q++ {
		t1 := ds.Start() + rng.Float64()*ds.Span()*0.7
		t2 := t1 + rng.Float64()*(ds.End()-t1)
		a, err := inMem.TopK(7, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		b, err := ext.TopK(7, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		itemsMatch(t, "EXACT1-external", b, a)
	}
}

func TestExact3InstantTopK(t *testing.T) {
	ds := randomDataset(50, 30, 20, false)
	e3, err := BuildExact3(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(51))
	for trial := 0; trial < 25; trial++ {
		at := ds.Start() + rng.Float64()*ds.Span()
		want := topk.NewCollector(5)
		for _, s := range ds.AllSeries() {
			want.Add(s.ID, s.At(at))
		}
		got, _, err := e3.InstantTopK(5, at)
		if err != nil {
			t.Fatal(err)
		}
		itemsMatch(t, "InstantTopK", got, want.Results())
	}
}

func TestExact3InstantTopKOutsideDomain(t *testing.T) {
	ds := randomDataset(52, 8, 8, false)
	e3, err := BuildExact3(blockio.NewViewOnlyDevice(512), ds)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := e3.InstantTopK(3, ds.End()+100)
	if err != nil {
		t.Fatal(err)
	}
	for _, it := range got {
		if it.Score != 0 {
			t.Errorf("score %g beyond domain, want 0", it.Score)
		}
	}
}

// TestRestoreExact3ChecksIntervalCount: a restored Exact3 answers like
// the original, and a state whose interval count disagrees with the
// dataset (one sentinel each side per object) is refused.
func TestRestoreExact3ChecksIntervalCount(t *testing.T) {
	ds := randomDataset(53, 8, 8, false)
	dev := blockio.NewViewOnlyDevice(512)
	e3, err := BuildExact3(dev, ds)
	if err != nil {
		t.Fatal(err)
	}
	st := e3.State()
	if want := ds.NumSegments() + 2*ds.NumSeries(); st.Tree.NumIntervals != want {
		t.Fatalf("built %d intervals, want %d", st.Tree.NumIntervals, want)
	}
	restored, err := RestoreExact3(dev, ds, st)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := ds.Start()+ds.Span()*0.2, ds.Start()+ds.Span()*0.7
	want, err := e3.TopK(5, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.TopK(5, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	itemsMatch(t, "restored EXACT3", got, want)

	for _, delta := range []int{-1, 1} {
		bad := st
		bad.Tree.NumIntervals += delta
		if _, err := RestoreExact3(dev, ds, bad); !errors.Is(err, trerr.ErrBadSnapshot) {
			t.Errorf("NumIntervals off by %d: err = %v, want ErrBadSnapshot", delta, err)
		}
	}
	bad := st
	bad.Tree.PayloadSize += 8
	if _, err := RestoreExact3(dev, ds, bad); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Errorf("payload of %d bytes: err = %v, want ErrBadSnapshot", bad.Tree.PayloadSize, err)
	}
}

// TestQueryFoldsIOsOnce: a query charges its page views to a count of
// its own and adds it to the device's total once. Each method's TopKIOs
// moves the device's count by exactly the IOs it reports, which are the
// views the same traversal counts on the device one by one, and Score
// adds its reads too. EXACT3's two stabs charged to one count leave the
// device untouched until the count is folded.
func TestQueryFoldsIOsOnce(t *testing.T) {
	ds := randomDataset(43, 60, 30, false)
	t1 := ds.Start() + ds.Span()*0.2
	t2 := ds.Start() + ds.Span()*0.7
	var e3 *Exact3
	for _, b := range []struct {
		name  string
		build func(dev blockio.Device) (Method, error)
	}{
		{"EXACT1", func(dev blockio.Device) (Method, error) { return BuildExact1(dev, ds) }},
		{"EXACT2", func(dev blockio.Device) (Method, error) { return BuildExact2(dev, ds) }},
		{"EXACT3", func(dev blockio.Device) (Method, error) { return BuildExact3(dev, ds) }},
	} {
		dev := blockio.NewViewOnlyDevice(512)
		m, err := b.build(dev)
		if err != nil {
			t.Fatal(err)
		}
		dev.ResetStats()
		_, ios, err := m.TopKIOs(5, t1, t2)
		if err != nil {
			t.Fatal(err)
		}
		if got := dev.Stats().Reads; ios == 0 || got != ios {
			t.Fatalf("%s: TopKIOs reports %d IOs, the device counted %d", b.name, ios, got)
		}

		// The same traversal, each view counted on the device as taken.
		dev.ResetStats()
		switch m := m.(type) {
		case *Exact1:
			_, err = m.runningSums(t1, t2, nil)
		case *Exact2:
			for id := range len(m.runs) - 1 {
				if _, err = m.score(tsdata.SeriesID(id), t1, t2, nil); err != nil {
					break
				}
			}
		case *Exact3:
			var sums *[]float64
			if sums, err = m.allScores(t1, t2, nil); err == nil {
				putScores(sums)
			}
			e3 = m
		}
		if err != nil {
			t.Fatal(err)
		}
		if each := dev.Stats().Reads; each != ios {
			t.Fatalf("%s: the traversal takes %d views, TopKIOs reported %d", b.name, each, ios)
		}

		dev.ResetStats()
		for id := tsdata.SeriesID(0); id < 10; id++ {
			if _, err := m.Score(id, t1, t2); err != nil {
				t.Fatal(err)
			}
		}
		if dev.Stats().Reads == 0 {
			t.Fatalf("%s: Score added no reads to the device", b.name)
		}
	}

	dev := e3.Device()
	dev.ResetStats()
	var count blockio.IOCount
	sums, err := e3.allScores(t1, t2, &count)
	if err != nil {
		t.Fatal(err)
	}
	putScores(sums)
	if r := dev.Stats().Reads; count.Reads() == 0 || r != 0 {
		t.Fatalf("EXACT3: stabs charged %d reads to their count, the device counted %d before the fold", count.Reads(), r)
	}
	count.Fold(dev)
	if r := dev.Stats().Reads; r != count.Reads() {
		t.Fatalf("EXACT3: folded %d reads, the device counts %d", count.Reads(), r)
	}
	dev.ResetStats()
	_, ios, err := e3.InstantTopK(5, t1)
	if err != nil {
		t.Fatal(err)
	}
	if ios == 0 || dev.Stats().Reads != ios {
		t.Fatalf("EXACT3: InstantTopK reports %d IOs, the device counted %d", ios, dev.Stats().Reads)
	}
}
