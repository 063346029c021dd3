package exact

import (
	"fmt"
	"sort"
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

	frontier []vertex
	// builtEnd[i] is object i's last vertex time at build; appends past
	// it live in the in-memory tail until the next rebuild (the static
	// interval tree is read-only; see Append).
	builtEnd []float64
	// tails is indexed by series ID (not a map: the stab visitor checks
	// it once per interval, and a map lookup there puts a hash on the
	// hot path for every object on every query).
	tails [][]tailEntry
}

// tailEntry mirrors an interval-tree entry for appended segments.
type tailEntry struct {
	seg    tsdata.Segment
	prefix float64 // σ_i(t_{i,0}, seg.T2)
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
	frontier := make([]vertex, m)
	builtEnd := make([]float64, m)
	for i, s := range ds.AllSeries() {
		frontier[i] = vertex{t: s.End(), v: s.VertexValue(s.NumSegments())}
		builtEnd[i] = s.End()
	}
	return &Exact3{
		dev:      dev,
		tree:     tree,
		m:        m,
		domainLo: lo,
		domainHi: hi,
		frontier: frontier,
		builtEnd: builtEnd,
		tails:    make([][]tailEntry, ds.NumSeries()),
	}, nil
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
	sums, err := e.allScores(t1, t2)
	if err != nil {
		return nil, err
	}
	items := collectTopK(k, *sums)
	putScores(sums)
	return items, nil
}

// scorePool recycles the per-query σ-vectors (one float64 per object,
// two vectors per query) — the largest single allocation on the EXACT3
// read path. It traffics in *[]float64 so Get and Put round-trip the
// same pointer object: putting the slice value (or a fresh pointer to
// it) would re-box it on every release, costing an allocation per
// vector per query.
var scorePool sync.Pool

// getScores returns a pointer to a zeroed score slice of length m.
//
//tr:hotpath
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
	//tr:alloc-ok one-time growth: steady-state pool reuse keeps the vector
	s := make([]float64, m)
	return &s
}

// putScores returns a pointer obtained from getScores to the pool.
//
//tr:hotpath
func putScores(p *[]float64) {
	if cap(*p) == 0 {
		return
	}
	scorePool.Put(p)
}

// allScores computes σ_i(t1,t2) for every object via two stabs. The
// returned vector comes from scorePool; callers release it with
// putScores once the values are consumed.
func (e *Exact3) allScores(t1, t2 float64) (*[]float64, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	hi, err := e.stabSigma(t2)
	if err != nil {
		return nil, err
	}
	lo, err := e.stabSigma(t1)
	if err != nil {
		putScores(hi)
		return nil, err
	}
	h, l := *hi, *lo
	for i := range h {
		h[i] -= l[i]
	}
	putScores(lo)
	return hi, nil
}

// clampStatic confines a stab coordinate to where the static tree's
// sentinels guarantee exactly one interval per object. Values beyond
// the built domain are snapped just inside the right sentinel, which is
// correct because every object is flat zero there (appends past the
// domain are resolved against the tail overlay with the unclamped t).
func (e *Exact3) clampStatic(t float64) float64 {
	if t < e.domainLo {
		return e.domainLo
	}
	if t >= e.domainHi {
		return e.domainHi - (e.domainHi-e.domainLo)*1e-12
	}
	return t
}

// stabSigma returns σ_i(t_{i,0}, t) for every object i: a stab at t
// yields each object's covering interval, whose prefix minus the
// partial trapezoid beyond t gives the prefix aggregate at t. Appended
// tails override the static tree's right sentinels.
func (e *Exact3) stabSigma(t float64) (*[]float64, error) {
	outp := getScores(e.m)
	out := *outp
	stabT := e.clampStatic(t)
	err := e.tree.Stab(stabT, func(iv itree.Interval) bool {
		id := getSeriesID(iv.Payload[0:])
		// If the object has tail segments and t lies at/after the end
		// of the built data, the tail path computes this value instead.
		if tail := e.tails[id]; len(tail) > 0 && t >= e.builtEnd[int(id)] {
			out[id] = tailSigma(tail, t)
			return true
		}
		seg := tsdata.Segment{T1: iv.Lo, T2: iv.Hi, V1: getF64(iv.Payload[4:]), V2: getF64(iv.Payload[12:])}
		prefix := getF64(iv.Payload[20:])
		out[id] = prefix - seg.IntegralFrom(stabT)
		return true
	})
	if err != nil {
		putScores(outp)
		return nil, err
	}
	return outp, nil
}

// tailSigma evaluates σ up to t against the append tail (sorted by
// segment start).
func tailSigma(tail []tailEntry, t float64) float64 {
	// Before the first tail segment: the prefix at the built end equals
	// the first tail prefix minus that segment's full area.
	first := tail[0]
	if t <= first.seg.T1 {
		return first.prefix - first.seg.Integral()
	}
	// Find the last tail segment starting at or before t.
	idx := sort.Search(len(tail), func(i int) bool { return tail[i].seg.T1 > t }) - 1
	te := tail[idx]
	if t >= te.seg.T2 {
		return te.prefix
	}
	return te.prefix - te.seg.IntegralFrom(t)
}

// Score implements Method. The interval tree has no single-object
// access path (that is EXACT2's specialty), so this runs the two stabs
// and projects one component.
func (e *Exact3) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	if id < 0 || int(id) >= e.m {
		return 0, fmt.Errorf("exact3: %w: %d", trerr.ErrUnknownSeries, id)
	}
	sums, err := e.allScores(t1, t2)
	if err != nil {
		return 0, err
	}
	s := (*sums)[id]
	putScores(sums)
	return s, nil
}

// Append implements Method. New segments land in an in-memory tail
// overlay consulted by queries; a production deployment would fold the
// tail into the static tree on rebuild (the paper's amortized
// O(log_B N) insert uses the dynamic Arge–Vitter tree instead).
func (e *Exact3) Append(id tsdata.SeriesID, t, v float64) error {
	if id < 0 || int(id) >= e.m {
		return fmt.Errorf("exact3: %w: %d", trerr.ErrUnknownSeries, id)
	}
	fr := e.frontier[id]
	seg := tsdata.Segment{T1: fr.t, T2: t, V1: fr.v, V2: v}
	if err := seg.Validate(); err != nil {
		return err
	}
	var prevPrefix float64
	if tail := e.tails[id]; len(tail) > 0 {
		prevPrefix = tail[len(tail)-1].prefix
	} else {
		// σ_i at the built end: recover it with a stab just inside the
		// right sentinel (prefix field of the sentinel).
		err := e.tree.Stab(e.clampStatic(e.domainHi), func(iv itree.Interval) bool {
			if getSeriesID(iv.Payload[0:]) == id {
				prevPrefix = getF64(iv.Payload[20:])
				return false
			}
			return true
		})
		if err != nil {
			return err
		}
	}
	e.tails[id] = append(e.tails[id], tailEntry{seg: seg, prefix: prevPrefix + seg.Integral()})
	e.frontier[id] = vertex{t: t, v: v}
	return nil
}

// TailSegments returns the number of segments living in the overlay
// (diagnostics; large values suggest a rebuild).
func (e *Exact3) TailSegments() int {
	n := 0
	for _, t := range e.tails {
		n += len(t)
	}
	return n
}

// InstantTopK answers the instant top-k query top-k(t) of the paper's
// predecessor work (Li, Yi, Le: "Top-k queries on temporal data", VLDB
// Journal 2010): the k objects with the largest g_i(t) at one time
// instant. A single stabbing query suffices — each returned interval
// carries its object's segment, evaluated at t. Objects outside their
// domain at t score 0 (their sentinel's flat-zero segment).
func (e *Exact3) InstantTopK(k int, t float64) ([]topk.Item, error) {
	if err := validateQuery(t, t); err != nil {
		return nil, err
	}
	c := topk.GetCollector(k)
	defer c.Release()
	stabT := e.clampStatic(t)
	err := e.tree.Stab(stabT, func(iv itree.Interval) bool {
		id := getSeriesID(iv.Payload[0:])
		if tail := e.tails[id]; len(tail) > 0 && t >= e.builtEnd[int(id)] {
			c.Add(id, tailAt(tail, t))
			return true
		}
		seg := tsdata.Segment{T1: iv.Lo, T2: iv.Hi, V1: getF64(iv.Payload[4:]), V2: getF64(iv.Payload[12:])}
		c.Add(id, seg.At(stabT))
		return true
	})
	if err != nil {
		return nil, err
	}
	return c.Results(), nil
}

// tailAt evaluates g at t against the append tail (0 beyond it).
func tailAt(tail []tailEntry, t float64) float64 {
	for _, te := range tail {
		if t >= te.seg.T1 && t <= te.seg.T2 {
			return te.seg.At(t)
		}
	}
	return 0
}
