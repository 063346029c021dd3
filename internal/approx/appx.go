package approx

import (
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/exact"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// Kind selects which breakpoint construction an APPX method uses.
type Kind int

const (
	// KindB1 uses BREAKPOINTS1 (the "-B" basic variants).
	KindB1 Kind = iota
	// KindB2 uses BREAKPOINTS2 (the improved variants).
	KindB2
)

// Index is an approximate method: everything an exact.Method does,
// plus approximation metadata.
type Index interface {
	exact.Method
	// Epsilon returns the ε the index was built with.
	Epsilon() float64
	// KMax returns the largest supported query k.
	KMax() int
}

// appxBase carries the pieces shared by all APPX variants. An index is
// immutable once built; new data reaches it only through a rebuild
// over the grown dataset.
type appxBase struct {
	name string
	dev  blockio.Device
	m    int // series count, for validating Score's id
	bps  *breakpoint.Set
	kmax int
	kind Kind
}

// newAppxBase names the index after its method family, with a "-B"
// suffix for the basic breakpoint kind.
func newAppxBase(family string, dev blockio.Device, ds *tsdata.Dataset, bps *breakpoint.Set, kmax int, kind Kind) appxBase {
	name := family
	if kind == KindB1 {
		name += "-B"
	}
	return appxBase{name: name, dev: dev, m: ds.NumSeries(), bps: bps, kmax: kmax, kind: kind}
}

func (a *appxBase) Name() string            { return a.name }
func (a *appxBase) Device() blockio.Device  { return a.dev }
func (a *appxBase) IndexPages() int         { return a.dev.NumPages() }
func (a *appxBase) Epsilon() float64        { return a.bps.Epsilon }
func (a *appxBase) KMax() int               { return a.kmax }
func (a *appxBase) Breaks() *breakpoint.Set { return a.bps }

// buildBreaks constructs the configured breakpoint flavour.
func buildBreaks(ds *tsdata.Dataset, kind Kind, eps float64) (*breakpoint.Set, error) {
	if kind == KindB1 {
		return breakpoint.Build1(ds, eps)
	}
	return breakpoint.Build2(ds, eps)
}

// --- APPX1 / APPX1-B ---------------------------------------------------

// Appx1 combines breakpoints with Query1: (ε,1)-approximate.
type Appx1 struct {
	appxBase
	q *Query1
}

// NewAppx1 builds APPX1 (kind=KindB2) or APPX1-B (kind=KindB1) with
// error parameter eps and maximum query depth kmax.
func NewAppx1(dev blockio.Device, ds *tsdata.Dataset, kind Kind, eps float64, kmax int) (*Appx1, error) {
	bps, err := buildBreaks(ds, kind, eps)
	if err != nil {
		return nil, err
	}
	return NewAppx1WithBreaks(dev, ds, kind, bps, kmax)
}

// NewAppx1WithBreaks builds APPX1 over a precomputed breakpoint set
// (used by the harness to share breakpoints across methods).
func NewAppx1WithBreaks(dev blockio.Device, ds *tsdata.Dataset, kind Kind, bps *breakpoint.Set, kmax int) (*Appx1, error) {
	q, err := BuildQuery1(dev, ds, bps, kmax)
	if err != nil {
		return nil, err
	}
	return &Appx1{appxBase: newAppxBase("APPX1", dev, ds, bps, kmax, kind), q: q}, nil
}

// TopK implements exact.Method.
func (a *Appx1) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	return a.q.TopK(k, t1, t2)
}

// TopKIOs implements exact.Method.
func (a *Appx1) TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error) {
	var ios blockio.IOCount
	items, err := a.q.topK(k, t1, t2, &ios)
	ios.Fold(a.dev)
	return items, ios.Reads(), err
}

// Score implements exact.Method: the (ε,1) estimate if the object is
// in the snapped interval's top-kmax, else trerr.ErrNotMaterialized —
// the structure stores no estimate for objects outside the
// materialized lists, and a silent 0.0 would be indistinguishable from
// a true zero aggregate.
func (a *Appx1) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	if id < 0 || int(id) >= a.m {
		return 0, fmt.Errorf("%s: %w: %d", a.name, trerr.ErrUnknownSeries, id)
	}
	items, err := a.q.TopK(a.kmax, t1, t2)
	if err != nil {
		return 0, err
	}
	for _, it := range items {
		if it.ID == id {
			return it.Score, nil
		}
	}
	return 0, fmt.Errorf("%s: %w: series %d outside the top-%d lists", a.name, trerr.ErrNotMaterialized, id, a.kmax)
}

// --- APPX2 / APPX2-B ---------------------------------------------------

// Appx2 combines breakpoints with Query2: (ε,2·log r)-approximate.
type Appx2 struct {
	appxBase
	q *Query2
}

// NewAppx2 builds APPX2 (kind=KindB2) or APPX2-B (kind=KindB1).
func NewAppx2(dev blockio.Device, ds *tsdata.Dataset, kind Kind, eps float64, kmax int) (*Appx2, error) {
	bps, err := buildBreaks(ds, kind, eps)
	if err != nil {
		return nil, err
	}
	return NewAppx2WithBreaks(dev, ds, kind, bps, kmax)
}

// NewAppx2WithBreaks builds APPX2 over a precomputed breakpoint set.
func NewAppx2WithBreaks(dev blockio.Device, ds *tsdata.Dataset, kind Kind, bps *breakpoint.Set, kmax int) (*Appx2, error) {
	q, err := BuildQuery2(dev, ds, bps, kmax)
	if err != nil {
		return nil, err
	}
	return &Appx2{appxBase: newAppxBase("APPX2", dev, ds, bps, kmax, kind), q: q}, nil
}

// TopK implements exact.Method.
func (a *Appx2) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	return a.q.TopK(k, t1, t2)
}

// TopKIOs implements exact.Method.
func (a *Appx2) TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error) {
	var ios blockio.IOCount
	items, err := a.q.topK(k, t1, t2, &ios)
	ios.Fold(a.dev)
	return items, ios.Reads(), err
}

// Score implements exact.Method (same convention as Appx1.Score:
// trerr.ErrNotMaterialized when the object is outside the candidate
// set, rather than a silent 0.0).
func (a *Appx2) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	if id < 0 || int(id) >= a.m {
		return 0, fmt.Errorf("%s: %w: %d", a.name, trerr.ErrUnknownSeries, id)
	}
	var ios blockio.IOCount
	acc, err := a.q.candidates(a.kmax, t1, t2, &ios)
	ios.Fold(a.dev)
	if err != nil {
		return 0, err
	}
	defer acc.release()
	if !acc.has(id) {
		return 0, fmt.Errorf("%s: %w: series %d outside the candidate set", a.name, trerr.ErrNotMaterialized, id)
	}
	return acc.sums[id], nil
}

// Query2Index exposes the underlying dyadic structure (for the
// candidate-set property tests and the harness).
func (a *Appx2) Query2Index() *Query2 { return a.q }

// --- APPX2+ -------------------------------------------------------------

// Appx2Plus is APPX2 with exact rescoring: the dyadic candidate set K
// is re-evaluated through EXACT2's packed per-object runs, laid out on
// the same device after the lists (which is why its index size is
// O(N/B) like the exact methods), then the k best exact scores win.
// Empirically near-exact at APPX2 query cost plus one or two page views
// per candidate.
type Appx2Plus struct {
	appxBase
	q  *Query2
	e2 *exact.Exact2
}

// NewAppx2Plus builds APPX2+ (the paper always pairs it with
// BREAKPOINTS2, but both kinds are supported).
func NewAppx2Plus(dev blockio.Device, ds *tsdata.Dataset, kind Kind, eps float64, kmax int) (*Appx2Plus, error) {
	bps, err := buildBreaks(ds, kind, eps)
	if err != nil {
		return nil, err
	}
	return NewAppx2PlusWithBreaks(dev, ds, kind, bps, kmax)
}

// NewAppx2PlusWithBreaks builds APPX2+ over a precomputed breakpoint
// set.
func NewAppx2PlusWithBreaks(dev blockio.Device, ds *tsdata.Dataset, kind Kind, bps *breakpoint.Set, kmax int) (*Appx2Plus, error) {
	q, err := BuildQuery2(dev, ds, bps, kmax)
	if err != nil {
		return nil, err
	}
	e2, err := exact.BuildExact2(dev, ds)
	if err != nil {
		return nil, err
	}
	return &Appx2Plus{appxBase: newAppxBase("APPX2+", dev, ds, bps, kmax, kind), q: q, e2: e2}, nil
}

// TopK implements exact.Method.
func (a *Appx2Plus) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	items, _, err := a.TopKIOs(k, t1, t2)
	return items, err
}

// TopKIOs implements exact.Method: dyadic candidates, exact rescoring
// in the order the merge first saw them, the lists' and the runs' page
// views charged to one count.
func (a *Appx2Plus) TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error) {
	var ios blockio.IOCount
	items, err := a.topK(k, t1, t2, &ios)
	ios.Fold(a.dev)
	return items, ios.Reads(), err
}

// topK is TopK charging its page views to ios.
func (a *Appx2Plus) topK(k int, t1, t2 float64, ios *blockio.IOCount) ([]topk.Item, error) {
	acc, err := a.q.candidates(k, t1, t2, ios)
	if err != nil {
		return nil, err
	}
	defer acc.release()
	c := topk.GetCollector(k)
	defer c.Release()
	// candidates validated the window and every id in acc.touched.
	for _, id := range acc.touched {
		s, err := a.e2.ScoreValid(id, t1, t2, ios)
		if err != nil {
			return nil, err
		}
		c.Add(id, s)
	}
	return c.Results(), nil
}

// Score implements exact.Method: exact when the object is a candidate.
func (a *Appx2Plus) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	return a.e2.Score(id, t1, t2)
}

var (
	_ Index = (*Appx1)(nil)
	_ Index = (*Appx2)(nil)
	_ Index = (*Appx2Plus)(nil)
)
