package exact

import (
	"fmt"
	"sync"

	"temporalrank/internal/blockio"
	"temporalrank/internal/itree"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// exact3PayloadSize: series id (4) + V1, V2 (16) + prefix σ_i(I_{i,ℓ})
// (8). The segment's time endpoints equal the interval bounds [lo, hi).
const exact3PayloadSize = 4 + 16 + 8

// Exact3 indexes the I⁻ decomposition of every object in one external
// interval tree; a top-k query issues two stabbing queries (at t1 and
// t2) and applies Eq. (2) per object — the paper's best exact method.
//
// Each object also contributes two zero-valued sentinel intervals
// covering the time before its first and after its last vertex, so a
// stab anywhere in the global domain returns exactly one entry per
// object and Eq. (2) needs no per-object clamping.
type Exact3 struct {
	dev  blockio.Device
	tree *itree.Tree
	m    int

	domainLo, domainHi float64
}

// BuildExact3 builds the interval tree for the dataset on dev.
func BuildExact3(dev blockio.Device, ds *tsdata.Dataset) (*Exact3, error) {
	m := ds.NumSeries()
	// Sentinels need strictly positive width beyond the domain.
	pad := ds.Span() * 0.01
	if pad <= 0 {
		pad = 1
	}
	lo := ds.Start() - pad
	hi := ds.End() + pad

	// Every payload is carved from one slab: the tree copies them onto
	// its pages and keeps none.
	intervals := make([]itree.Interval, 0, ds.NumSegments()+2*m)
	slab := make([]byte, cap(intervals)*exact3PayloadSize)
	add := func(id tsdata.SeriesID, lo, hi, v1, v2, prefix float64) {
		p := slab[:exact3PayloadSize:exact3PayloadSize]
		slab = slab[exact3PayloadSize:]
		putSeriesID(p[0:], id)
		putF64(p[4:], v1)
		putF64(p[12:], v2)
		putF64(p[20:], prefix)
		intervals = append(intervals, itree.Interval{Lo: lo, Hi: hi, Payload: p})
	}
	for _, s := range ds.AllSeries() {
		// Left sentinel: zero function before the object begins.
		if s.Start() > lo {
			add(s.ID, lo, s.Start(), 0, 0, 0)
		}
		for j := 0; j < s.NumSegments(); j++ {
			seg := s.Segment(j)
			add(s.ID, seg.T1, seg.T2, seg.V1, seg.V2, s.Prefix(j+1))
		}
		// Right sentinel: zero function after the object ends, carrying
		// the full prefix.
		add(s.ID, s.End(), hi, 0, 0, s.Total())
	}
	tree, err := itree.Build(dev, exact3PayloadSize, intervals)
	if err != nil {
		return nil, fmt.Errorf("exact3: %w", err)
	}
	return &Exact3{dev: dev, tree: tree, m: m, domainLo: lo, domainHi: hi}, nil
}

// Name implements Method.
func (e *Exact3) Name() string { return "EXACT3" }

// Device implements Method.
func (e *Exact3) Device() blockio.Device { return e.dev }

// IndexPages implements Method.
func (e *Exact3) IndexPages() int { return e.dev.NumPages() }

// TopK implements Method: two stabbing queries then the shared top-k
// pass.
func (e *Exact3) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	items, _, err := e.TopKAdjusted(k, t1, t2, nil)
	return items, err
}

// TopKIOs implements Method.
func (e *Exact3) TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error) {
	return e.TopKAdjusted(k, t1, t2, nil)
}

// TopKAdjusted is TopKIOs with a hook between the stabs and the top-k
// pass: adjust, when non-nil, receives the σ-vector — σ_i(t1,t2) of
// every object, indexed by series id — and may change entries in place,
// as a caller does to add mass the index has not seen. The vector is
// pooled and valid only during the call.
func (e *Exact3) TopKAdjusted(k int, t1, t2 float64, adjust func(sums []float64)) ([]topk.Item, uint64, error) {
	var ios blockio.IOCount
	sums, err := e.allScores(t1, t2, &ios)
	ios.Fold(e.dev)
	if err != nil {
		return nil, ios.Reads(), err
	}
	if adjust != nil {
		adjust(*sums)
	}
	items := topk.Collect(k, *sums)
	putScores(sums)
	return items, ios.Reads(), nil
}

// scorePool recycles the per-query σ-vectors (one float64 per object)
// — the largest single allocation on the EXACT3 read path. It traffics
// in *[]float64 so Get and Put round-trip the same pointer object:
// putting the slice value (or a fresh pointer to it) would re-box it on
// every release, costing an allocation per query.
var scorePool sync.Pool

// getScores returns a pointer to a zeroed score slice of length m.
func getScores(m int) *[]float64 {
	if v := scorePool.Get(); v != nil {
		p := v.(*[]float64)
		if cap(*p) >= m {
			s := (*p)[:m]
			for i := range s {
				s[i] = 0
			}
			*p = s
			return p
		}
	}
	s := make([]float64, m)
	return &s
}

// putScores returns a pointer obtained from getScores to the pool.
func putScores(p *[]float64) {
	if cap(*p) == 0 {
		return
	}
	scorePool.Put(p)
}

// allScores computes σ_i(t1,t2) for every object via two stabs into
// one vector: the t2 stab stores σ_i(t_{i,0}, t2) and the t1 stab
// subtracts σ_i(t_{i,0}, t1) in place. The stabs' page views are
// charged to ios. The returned vector comes from scorePool; callers
// release it with putScores once the values are consumed.
func (e *Exact3) allScores(t1, t2 float64, ios *blockio.IOCount) (*[]float64, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	sums := getScores(e.m)
	if err := e.stabSigma(*sums, t2, false, ios); err != nil {
		putScores(sums)
		return nil, err
	}
	if err := e.stabSigma(*sums, t1, true, ios); err != nil {
		putScores(sums)
		return nil, err
	}
	return sums, nil
}

// clampStatic confines a stab coordinate to where the tree's sentinels
// guarantee exactly one interval per object. Values beyond the built
// domain are snapped just inside the right sentinel, which is correct
// because every object is flat zero there: its prefix is the object's
// full total and no segment remains to subtract.
func (e *Exact3) clampStatic(t float64) float64 {
	if t < e.domainLo {
		return e.domainLo
	}
	if t >= e.domainHi {
		return e.domainHi - (e.domainHi-e.domainLo)*1e-12
	}
	return t
}

// exact3RecordSize is the stride of the tree's records: lo, hi, then
// the payload (series id, V1, V2, prefix).
const exact3RecordSize = 16 + exact3PayloadSize

// recordSegment decodes the segment of one tree record; its time
// endpoints are the interval's bounds.
func recordSegment(r []byte) tsdata.Segment {
	return tsdata.Segment{T1: getF64(r[0:]), T2: getF64(r[8:]), V1: getF64(r[20:]), V2: getF64(r[28:])}
}

// stabSigma writes σ_i(t_{i,0}, t) of every object i into out, or
// subtracts it from out[i] when sub is set: a stab at t yields each
// object's covering interval, whose prefix minus the partial trapezoid
// beyond t gives the prefix aggregate at t. Each page's run of hits is
// scored in one loop over its records.
func (e *Exact3) stabSigma(out []float64, t float64, sub bool, ios *blockio.IOCount) error {
	stabT := e.clampStatic(t)
	return e.tree.StabRuns(stabT, ios, func(recs []byte) bool {
		for off := 0; off+exact3RecordSize <= len(recs); off += exact3RecordSize {
			r := recs[off : off+exact3RecordSize]
			s := getF64(r[36:]) - recordSegment(r).IntegralFrom(stabT)
			if id := getSeriesID(r[16:]); sub {
				out[id] -= s
			} else {
				out[id] = s
			}
		}
		return true
	})
}

// Score implements Method. The interval tree has no single-object
// access path (that is EXACT2's specialty), so this runs the two stabs
// and projects one component.
func (e *Exact3) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	if id < 0 || int(id) >= e.m {
		return 0, fmt.Errorf("exact3: %w: %d", trerr.ErrUnknownSeries, id)
	}
	var ios blockio.IOCount
	sums, err := e.allScores(t1, t2, &ios)
	ios.Fold(e.dev)
	if err != nil {
		return 0, err
	}
	s := (*sums)[id]
	putScores(sums)
	return s, nil
}

// InstantTopK answers the instant top-k query top-k(t) of the paper's
// predecessor work (Li, Yi, Le: "Top-k queries on temporal data", VLDB
// Journal 2010): the k objects with the largest g_i(t) at one time
// instant. A single stabbing query suffices — each returned interval
// carries its object's segment, evaluated at t. Objects outside their
// domain at t score 0 (their sentinel's flat-zero segment). It returns
// the call's IOs as TopKIOs does.
func (e *Exact3) InstantTopK(k int, t float64) ([]topk.Item, uint64, error) {
	if err := validateQuery(t, t); err != nil {
		return nil, 0, err
	}
	c := topk.GetCollector(k)
	defer c.Release()
	stabT := e.clampStatic(t)
	var ios blockio.IOCount
	err := e.tree.StabRuns(stabT, &ios, func(recs []byte) bool {
		for off := 0; off+exact3RecordSize <= len(recs); off += exact3RecordSize {
			r := recs[off : off+exact3RecordSize]
			c.Add(getSeriesID(r[16:]), recordSegment(r).At(stabT))
		}
		return true
	})
	ios.Fold(e.dev)
	if err != nil {
		return nil, ios.Reads(), err
	}
	return c.Results(), ios.Reads(), nil
}
