package exact

import (
	"errors"
	"math"
	"math/rand"
	"testing"

	"temporalrank/internal/blockio"
	"temporalrank/internal/gen"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// packedLayoutDataset builds series whose packed runs, at perPage slots
// a page, hit every layout edge: one-segment runs, a run that ends one
// slot short of a page end, runs whose last slot is a page's last slot
// (alone, filling a page, and after crossing a boundary), and runs that
// straddle one and two page boundaries. Values are random.
func packedLayoutDataset(t *testing.T, perPage int, seed int64) *tsdata.Dataset {
	t.Helper()
	p := perPage
	counts := []int{
		1,       // one segment at slot 0
		p - 2,   // ends one slot before page 0's last slot
		1,       // one segment in page 0's last slot
		p,       // fills page 1 exactly
		p + 3,   // straddles one boundary
		2*p + 2, // straddles two boundaries, ends at slot 5p+4
		2*p - 5, // straddles one boundary, ends in page 6's last slot
		1,       // one segment in page 7's first slot
		3,
	}
	rng := rand.New(rand.NewSource(seed))
	series := make([]*tsdata.Series, len(counts))
	for i, n := range counts {
		series[i] = randomSeries(rng, tsdata.SeriesID(i), n, i%2 == 1)
	}
	ds, err := tsdata.NewDataset(series)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

// layoutCases reports which layout edges the dataset's packed runs hit.
func layoutCases(ds *tsdata.Dataset, perPage int) map[string]bool {
	seen := map[string]bool{}
	g := 0
	for _, s := range ds.AllSeries() {
		n := s.NumSegments()
		crossed := (g+n-1)/perPage - g/perPage
		endsPage := (g+n)%perPage == 0
		switch {
		case n == 1:
			seen["one segment"] = true
			if endsPage {
				seen["one segment in a page's last slot"] = true
			}
		case crossed == 1 && endsPage:
			seen["one boundary, ends in a page's last slot"] = true
		case crossed == 1:
			seen["one boundary"] = true
		case crossed == 2:
			seen["two boundaries"] = true
		case crossed == 0 && endsPage:
			seen["ends in a page's last slot"] = true
		}
		g += n
	}
	return seen
}

// probeTimes are the window ends the equivalence test tries for one
// series: every stored key (so every page-boundary key) and vertex,
// midpoints between them, the series' own start and end, the dataset's
// bounds, and points outside both.
func probeTimes(ds *tsdata.Dataset, s *tsdata.Series) []float64 {
	ts := []float64{ds.Start() - 1, ds.Start(), ds.End(), ds.End() + 1, s.Start() - 0.5, s.End() + 0.5}
	for j := 0; j <= s.NumSegments(); j++ {
		ts = append(ts, s.VertexTime(j))
		if j < s.NumSegments() {
			ts = append(ts, (s.VertexTime(j)+s.VertexTime(j+1))/2)
		}
	}
	return ts
}

// TestExact2PackedMatchesRange checks the packed runs against
// tsdata.Series.Range for every pair of probe times of every series, at
// three block sizes, and that a score views at most two pages.
func TestExact2PackedMatchesRange(t *testing.T) {
	for _, bs := range []int{256, 1024, 4096} {
		perPage := bs / exact2SlotSize
		ds := packedLayoutDataset(t, perPage, int64(bs))
		for _, c := range []string{
			"one segment", "one segment in a page's last slot", "ends in a page's last slot",
			"one boundary", "one boundary, ends in a page's last slot", "two boundaries",
		} {
			if !layoutCases(ds, perPage)[c] {
				t.Fatalf("block %d: layout misses %q", bs, c)
			}
		}
		dev := blockio.NewViewOnlyDevice(bs)
		e, err := BuildExact2(dev, ds)
		if err != nil {
			t.Fatal(err)
		}
		if want := (ds.NumSegments() + perPage - 1) / perPage; dev.NumPages() != want {
			t.Fatalf("block %d: %d pages for %d slots, want %d", bs, dev.NumPages(), ds.NumSegments(), want)
		}
		for _, s := range ds.AllSeries() {
			ts := probeTimes(ds, s)
			for _, t1 := range ts {
				for _, t2 := range ts {
					if t2 < t1 {
						continue
					}
					before := dev.Stats().Reads
					got, err := e.Score(s.ID, t1, t2)
					if err != nil {
						t.Fatal(err)
					}
					if reads := dev.Stats().Reads - before; reads > 2 {
						t.Fatalf("block %d series %d [%g,%g]: %d page reads, want <= 2", bs, s.ID, t1, t2, reads)
					}
					if want := s.Range(t1, t2); !approxEq(got, want, 1e-9) {
						t.Fatalf("block %d series %d (%d segments) [%g,%g]: %g, want %g",
							bs, s.ID, s.NumSegments(), t1, t2, got, want)
					}
				}
			}
		}
	}
}

// TestRestoreExact2 restores the packed runs from their first page, and
// refuses a forged first page either way and a page image missing its
// last page.
func TestRestoreExact2(t *testing.T) {
	ds := packedLayoutDataset(t, 512/exact2SlotSize, 7)
	dev := blockio.NewViewOnlyDevice(512)
	// A leading foreign page, as APPX2+'s lists precede its runs.
	if _, err := dev.Alloc(); err != nil {
		t.Fatal(err)
	}
	e, err := BuildExact2(dev, ds)
	if err != nil {
		t.Fatal(err)
	}
	st := e.State()
	if st.FirstPage != 1 {
		t.Fatalf("first page %d, want 1", st.FirstPage)
	}
	restored, err := RestoreExact2(dev, ds, st)
	if err != nil {
		t.Fatal(err)
	}
	t1, t2 := ds.Start()+ds.Span()*0.2, ds.Start()+ds.Span()*0.7
	want, err := e.TopK(5, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.TopK(5, t1, t2)
	if err != nil {
		t.Fatal(err)
	}
	itemsMatch(t, "restored EXACT2", got, want)

	for _, first := range []blockio.PageID{st.FirstPage - 1, st.FirstPage + 1, blockio.InvalidPage} {
		if _, err := RestoreExact2(dev, ds, Exact2State{FirstPage: first}); !errors.Is(err, trerr.ErrBadSnapshot) {
			t.Errorf("first page %d: err = %v, want ErrBadSnapshot", first, err)
		}
	}
	short := blockio.NewViewOnlyDevice(512)
	for id := 0; id < dev.NumPages()-1; id++ {
		if _, err := short.Alloc(); err != nil {
			t.Fatal(err)
		}
		v, err := blockio.View(dev, blockio.PageID(id))
		if err != nil {
			t.Fatal(err)
		}
		err = short.Write(blockio.PageID(id), v.Data())
		v.Release()
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, err := RestoreExact2(short, ds, st); !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Errorf("short page image: err = %v, want ErrBadSnapshot", err)
	}
}

// sigmaOn is score's lookup of σ_i(t_{i,0}, t) on page, the run's page
// returned by pageOf: the guess, then the galloping search from it.
func (e *Exact2) sigmaOn(id tsdata.SeriesID, page blockio.PageID, data []byte, t float64) float64 {
	lo, hi, g := e.guess(id, page, t)
	return sigmaFrom(data, lo, hi, g, getF64(data[g*exact2SlotSize:]), t)
}

// binarySigmaOn is sigmaOn with a plain binary search over the page's
// slots of the run, the search the galloping one must agree with.
func binarySigmaOn(e *Exact2, id tsdata.SeriesID, page blockio.PageID, data []byte, t float64) float64 {
	base := int(page-e.first) * e.perPage
	lo := max(e.runs[id].off, base) - base
	hi := min(e.runs[id+1].off, base+e.perPage) - base
	l, h := lo, hi
	for l < h {
		mid := int(uint(l+h) >> 1)
		if getF64(data[mid*exact2SlotSize:]) < t {
			l = mid + 1
		} else {
			h = mid
		}
	}
	if l == hi {
		return getF64(data[(hi-1)*exact2SlotSize+32:])
	}
	slot := data[l*exact2SlotSize:]
	key := getF64(slot[0:])
	seg := tsdata.Segment{T1: getF64(slot[8:]), T2: key, V1: getF64(slot[16:]), V2: getF64(slot[24:])}
	return getF64(slot[32:]) - seg.IntegralOver(t, key)
}

// crowdedSeries has n segments over [0, 100] whose vertices crowd the
// start (atEnd false) or the end, so the evenly-spread guess lands far
// from the slot it looks for.
func crowdedSeries(t *testing.T, id tsdata.SeriesID, n int, atEnd bool) *tsdata.Series {
	t.Helper()
	times := make([]float64, n+1)
	values := make([]float64, n+1)
	for j := range times {
		x := float64(j) / float64(n)
		if atEnd {
			times[j] = 100 * (1 - math.Pow(1-x, 4))
		} else {
			times[j] = 100 * math.Pow(x, 4)
		}
		values[j] = float64(j%7) + 1
	}
	s, err := tsdata.NewSeries(id, times, values)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestExact2SigmaOnMatchesBinarySearch checks the galloping sigmaOn
// against a plain binary search, Float64bits for Float64bits, at every
// vertex time of every run, one ulp either side of it and halfway to
// the next. The runs are Temp and RandomWalk series, series whose
// vertices crowd one end, and one-segment series; at 512-byte blocks
// they cross many pages, so the probes include the last key of a page
// and the first key of the next.
func TestExact2SigmaOnMatchesBinarySearch(t *testing.T) {
	temp, err := gen.Temp(gen.TempConfig{M: 6, Navg: 120, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	walk, err := gen.RandomWalk(gen.RandomWalkConfig{M: 6, Navg: 120, Seed: 6})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	edge, err := tsdata.NewDataset([]*tsdata.Series{
		crowdedSeries(t, 0, 200, false),
		randomSeries(rng, 1, 1, false),
		crowdedSeries(t, 2, 200, true),
		randomSeries(rng, 3, 1, true),
		crowdedSeries(t, 4, 5, false),
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, ds := range map[string]*tsdata.Dataset{"temp": temp, "walk": walk, "edge": edge} {
		for _, bs := range []int{512, 4096} {
			e, err := BuildExact2(blockio.NewViewOnlyDevice(bs), ds)
			if err != nil {
				t.Fatal(err)
			}
			if bs == 512 && len(e.bnd) == 0 {
				t.Fatalf("%s: no run crosses a page", name)
			}
			for _, s := range ds.AllSeries() {
				var probes []float64
				for j := 0; j <= s.NumSegments(); j++ {
					v := s.VertexTime(j)
					probes = append(probes, v, math.Nextafter(v, math.Inf(-1)), math.Nextafter(v, math.Inf(1)))
					if j < s.NumSegments() {
						probes = append(probes, (v+s.VertexTime(j+1))/2)
					}
				}
				for _, pt := range probes {
					if pt < s.Start() || pt > s.End() {
						continue
					}
					page := e.pageOf(s.ID, pt)
					v, err := blockio.View(e.dev, page)
					if err != nil {
						t.Fatal(err)
					}
					got := e.sigmaOn(s.ID, page, v.Data(), pt)
					want := binarySigmaOn(e, s.ID, page, v.Data(), pt)
					v.Release()
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s block %d series %d t=%v: sigmaOn %v, binary search %v", name, bs, s.ID, pt, got, want)
					}
				}
			}
		}
	}
}
