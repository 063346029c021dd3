package exact

import (
	"errors"
	"math/rand"
	"testing"

	"temporalrank/internal/blockio"
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
