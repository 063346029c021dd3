package exact

import (
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// exact2SlotSize is the stride of one packed entry e_{i,ℓ}: the
// segment's right endpoint t_{i,ℓ} (the key), its left endpoint T1, its
// values V1 and V2, and the prefix aggregate σ_i(I_{i,ℓ}). A slot holds
// the whole segment, so no lookup needs its neighbour.
const exact2SlotSize = 8 + 8 + 8 + 8 + 8 // T2, T1, V1, V2, prefix

// Exact2 is the paper's per-object prefix-sum method (Eq. 2), stored as
// one packed run of fixed-size slots per object instead of one B+-tree
// per object. The runs are laid out in series order, each in key order,
// across consecutive pages of the device with no per-page header or
// padding: global slot g lives on page first + g/perPage.
//
// A small in-memory directory, derived from the dataset, routes a
// lookup to the one page that holds its key: one record per run, with
// the run's domain, its first global slot and where its page-boundary
// keys start, and for every page a run crosses but the last, the last
// key stored on that page. A sentinel record at index m closes the last
// run, so run i is read off records i and i+1, which are adjacent: a
// lookup reads one or two cache lines of directory, not four parallel
// arrays. So σ_i(t_{i,0}, t) costs one page view, and Score views a
// single page when both window ends fall on it.
type Exact2 struct {
	dev     blockio.Device
	first   blockio.PageID // page of global slot 0
	perPage int            // slots per page

	// runs[i] is series i's record; runs[m] is the sentinel, whose off
	// is N and whose bndOff is len(bnd).
	runs []exact2Run
	// bnd[runs[i].bndOff:runs[i+1].bndOff] are the last keys on each
	// page series i's run crosses, except the run's last page.
	bnd []float64
}

// exact2Run is one series' directory record: its domain, for query
// clamping, its first global slot, and the start of its keys in bnd.
// The sentinel's domain is zero.
type exact2Run struct {
	start, end float64
	off        int
	bndOff     int
}

// run returns the records of series id and of the series after it (or
// the sentinel), whose off and bndOff end id's run.
func (e *Exact2) run(id tsdata.SeriesID) (r, next *exact2Run) {
	rs := e.runs[id : id+2 : id+2]
	return &rs[0], &rs[1]
}

// newExact2Dir derives the directory of a packed layout starting at
// page first from the dataset alone.
func newExact2Dir(dev blockio.Device, ds *tsdata.Dataset, first blockio.PageID) (*Exact2, error) {
	perPage := dev.BlockSize() / exact2SlotSize
	if perPage < 1 {
		return nil, fmt.Errorf("exact2: block size %d below one %d-byte slot", dev.BlockSize(), exact2SlotSize)
	}
	m := ds.NumSeries()
	e := &Exact2{
		dev:     dev,
		first:   first,
		perPage: perPage,
		runs:    make([]exact2Run, m+1),
		bnd:     make([]float64, 0, ds.NumSegments()/perPage+m),
	}
	g := 0
	for i, s := range ds.AllSeries() {
		n := s.NumSegments()
		e.runs[i] = exact2Run{start: s.Start(), end: s.End(), off: g, bndOff: len(e.bnd)}
		// Global slot p*perPage-1 is the last on page p-1; it belongs to
		// this run when it falls before the run's last slot.
		for end := (g/perPage + 1) * perPage; end < g+n; end += perPage {
			e.bnd = append(e.bnd, s.VertexTime(end-g))
		}
		g += n
	}
	e.runs[m] = exact2Run{off: g, bndOff: len(e.bnd)}
	return e, nil
}

// BuildExact2 packs every object's entries onto dev in one pass: pages
// are allocated consecutively and written as they fill.
func BuildExact2(dev blockio.Device, ds *tsdata.Dataset) (*Exact2, error) {
	e, err := newExact2Dir(dev, ds, blockio.InvalidPage)
	if err != nil {
		return nil, err
	}
	buf := make([]byte, dev.BlockSize())
	page, used := blockio.InvalidPage, 0
	flush := func() error {
		if page == blockio.InvalidPage {
			return nil
		}
		if err := dev.Write(page, buf); err != nil {
			return fmt.Errorf("exact2: write page %d: %w", page, err)
		}
		return nil
	}
	for _, s := range ds.AllSeries() {
		for j := 0; j < s.NumSegments(); j++ {
			if page == blockio.InvalidPage || used == e.perPage {
				if err := flush(); err != nil {
					return nil, err
				}
				p, err := dev.Alloc()
				if err != nil {
					return nil, fmt.Errorf("exact2: alloc: %w", err)
				}
				if e.first == blockio.InvalidPage {
					e.first = p
				} else if p != page+1 {
					return nil, fmt.Errorf("exact2: page %d allocated after %d: the run must be contiguous", p, page)
				}
				page, used = p, 0
				clear(buf)
			}
			seg := s.Segment(j)
			slot := buf[used*exact2SlotSize:]
			putF64(slot[0:], seg.T2)
			putF64(slot[8:], seg.T1)
			putF64(slot[16:], seg.V1)
			putF64(slot[24:], seg.V2)
			putF64(slot[32:], s.Prefix(j+1))
			used++
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	return e, nil
}

// Name implements Method.
func (e *Exact2) Name() string { return "EXACT2" }

// Device implements Method.
func (e *Exact2) Device() blockio.Device { return e.dev }

// IndexPages implements Method.
func (e *Exact2) IndexPages() int { return e.dev.NumPages() }

// TopK implements Method.
func (e *Exact2) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	items, _, err := e.TopKIOs(k, t1, t2)
	return items, err
}

// TopKIOs implements Method: every object's score from its own run,
// into a pooled σ-vector (getScores/putScores, as EXACT3), with the
// window validated once for the whole query.
func (e *Exact2) TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, 0, err
	}
	var ios blockio.IOCount
	sums := getScores(len(e.runs) - 1)
	var err error
	for i := range *sums {
		if (*sums)[i], err = e.score(tsdata.SeriesID(i), t1, t2, &ios); err != nil {
			break
		}
	}
	ios.Fold(e.dev)
	if err != nil {
		putScores(sums)
		return nil, ios.Reads(), err
	}
	items := topk.Collect(k, *sums)
	putScores(sums)
	return items, ios.Reads(), nil
}

// Score implements Method: Eq. (2) from the run's page (or pages) that
// hold the ceilings of t1 and t2 — one page view when both share one.
func (e *Exact2) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	if id < 0 || int(id) >= len(e.runs)-1 {
		return 0, fmt.Errorf("exact2: %w: %d", trerr.ErrUnknownSeries, id)
	}
	if err := validateQuery(t1, t2); err != nil {
		return 0, err
	}
	var ios blockio.IOCount
	s, err := e.score(id, t1, t2, &ios)
	ios.Fold(e.dev)
	return s, err
}

// ScoreValid is Score charging its page views to ios, for a caller
// that scores many objects in one call and folds the count once. The
// caller has checked what Score checks: id is one of the dataset's
// series, and t1 <= t2 are both finite.
func (e *Exact2) ScoreValid(id tsdata.SeriesID, t1, t2 float64, ios *blockio.IOCount) (float64, error) {
	return e.score(id, t1, t2, ios)
}

// score is Score for a known series and a validated window, charging
// its page views to ios.
func (e *Exact2) score(id tsdata.SeriesID, t1, t2 float64, ios *blockio.IOCount) (float64, error) {
	r, _ := e.run(id)
	// Clamp to the object's domain; g_i is 0 outside it.
	if t1 < r.start {
		t1 = r.start
	}
	if t2 > r.end {
		t2 = r.end
	}
	if t2 <= t1 {
		return 0, nil
	}
	p2 := e.pageOf(id, t2)
	v2, err := ios.View(e.dev, p2)
	if err != nil {
		return 0, err
	}
	v1 := v2
	p1 := e.pageOf(id, t1)
	if p1 != p2 {
		if v1, err = ios.View(e.dev, p1); err != nil {
			v2.Release()
			return 0, err
		}
	}
	lo2, hi2, g2 := e.guess(id, p2, t2)
	lo1, hi1, g1 := e.guess(id, p1, t1)
	d2, d1 := v2.Data(), v1.Data()
	// Both guessed keys are loaded before either search branches on
	// one, so the two loads, often from cold memory, overlap.
	k2, k1 := getF64(d2[g2*exact2SlotSize:]), getF64(d1[g1*exact2SlotSize:])
	s := sigmaFrom(d2, lo2, hi2, g2, k2, t2) - sigmaFrom(d1, lo1, hi1, g1, k1, t1)
	if p1 != p2 {
		v1.Release()
	}
	v2.Release()
	return s, nil
}

// pageOf returns the page holding the first key >= t of series id's
// run, or the run's last page when t is past its last key. Every page
// before the returned one ends below t, so the ceiling cannot lie
// earlier; a run crosses few pages, so the scan is linear.
func (e *Exact2) pageOf(id tsdata.SeriesID, t float64) blockio.PageID {
	r, next := e.run(id)
	bnd := e.bnd[r.bndOff:next.bndOff]
	p := 0
	for p < len(bnd) && bnd[p] < t {
		p++
	}
	return e.first + blockio.PageID(r.off/e.perPage+p)
}

// guess returns the slots [lo, hi) of series id's run on page and the
// slot g among them that t would fall in if the run's vertices were
// evenly spread over its span.
func (e *Exact2) guess(id tsdata.SeriesID, page blockio.PageID, t float64) (lo, hi, g int) {
	r, next := e.run(id)
	base := int(page-e.first) * e.perPage
	lo = max(r.off, base) - base
	hi = min(next.off, base+e.perPage) - base
	n := next.off - r.off
	guess := float64(r.off-base) + (t-r.start)/(r.end-r.start)*float64(n)
	g = lo
	if guess >= float64(hi-1) {
		g = hi - 1
	} else if guess > float64(lo) {
		g = int(guess)
	}
	return lo, hi, g
}

// sigmaFrom returns σ_i(t_{i,0}, t) for t within the object's domain
// from data, the page of the run returned by pageOf, given the page's
// slots [lo, hi) of the run and the guessed slot g and its key kg (see
// guess): locate the entry e_L whose key t_{i,L} is the first >= t,
// then subtract the part of segment g_L beyond t from the stored
// prefix. Past the last key (reachable only through floating-point
// equality edge cases, as the domain is clamped) the full prefix
// applies.
//
// The search gallops from the guess to a bracket and binary-searches
// only the bracket. Each probe of a plain binary search over the page
// is a dependent load from a page that is often cold, and a guess near
// e_L needs few of them. Keys increase along the run, so the first key
// >= t is the same slot either way.
func sigmaFrom(data []byte, lo, hi, g int, kg, t float64) float64 {
	// Gallop to a bracket [l, h): every slot before l has a key < t, and
	// the slot at h, when h < hi, has a key >= t.
	l, h := lo, hi
	if kg < t {
		l = g + 1
		for step := 1; g+step < hi; step <<= 1 {
			if getF64(data[(g+step)*exact2SlotSize:]) >= t {
				h = g + step
				break
			}
			l = g + step + 1
		}
	} else {
		h = g
		for step := 1; g-step >= lo; step <<= 1 {
			if getF64(data[(g-step)*exact2SlotSize:]) < t {
				l = g - step + 1
				break
			}
			h = g - step
		}
	}
	// Binary search for the first slot in [l, h) whose key is >= t.
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
