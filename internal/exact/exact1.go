package exact

import (
	"errors"
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/extsort"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// exact1ValueSize is the leaf payload: series id (4) + T2, V1, V2 (24).
// The segment's left endpoint T1 is the tree key.
const exact1ValueSize = 4 + 24

// Exact1 is the paper's improved baseline: all N segments in one
// B+-tree keyed by left endpoint; queries sweep the leaf level across
// the query range maintaining one running sum per object.
type Exact1 struct {
	dev  blockio.Device
	tree *bptree.Tree
	m    int

	// maxDur is the longest segment duration in the index. A segment
	// overlapping [t1,t2] must have T1 in (t1-maxDur, t2], so the leaf
	// sweep starts at SearchCeil(t1-maxDur). The paper starts the scan
	// "at the segments containing t1", which a B+-tree on left
	// endpoints cannot locate exactly when segments straddle t1; the
	// maxDur look-back makes the sweep provably complete while keeping
	// the same asymptotics for realistic (short-segment) data.
	maxDur float64
}

// BuildExact1 bulk-loads the index from the dataset onto dev.
func BuildExact1(dev blockio.Device, ds *tsdata.Dataset) (*Exact1, error) {
	flat := ds.FlatSegments()
	entries := make([]bptree.Entry, len(flat))
	var maxDur float64
	for i, ref := range flat {
		v := make([]byte, exact1ValueSize)
		putSeriesID(v[0:], ref.Series)
		putF64(v[4:], ref.Segment.T2)
		putF64(v[12:], ref.Segment.V1)
		putF64(v[20:], ref.Segment.V2)
		entries[i] = bptree.Entry{Key: ref.Segment.T1, Value: v}
		if d := ref.Segment.Duration(); d > maxDur {
			maxDur = d
		}
	}
	tree, err := bptree.BulkLoad(dev, exact1ValueSize, entries)
	if err != nil {
		return nil, fmt.Errorf("exact1: bulk load: %w", err)
	}
	return &Exact1{dev: dev, tree: tree, m: ds.NumSeries(), maxDur: maxDur}, nil
}

// BuildExact1External builds the same index through the out-of-core
// path: segments are externally sorted on scratch (internal/extsort, a
// stand-in for TPIE's sort) with an in-memory budget of budgetRecords
// records, then bulk-loaded. Byte-for-byte equivalent to BuildExact1;
// used when N exceeds memory.
func BuildExact1External(dev, scratch blockio.Device, ds *tsdata.Dataset, budgetRecords int) (*Exact1, error) {
	const recSize = 8 + exact1ValueSize // key T1 + value payload
	sorter, err := extsort.New(scratch, recSize, budgetRecords, func(a, b []byte) bool {
		ka := getF64(a[0:])
		kb := getF64(b[0:])
		if ka != kb {
			return ka < kb
		}
		// Tie-break on (series, left endpoint already equal): keep the
		// same deterministic order as Dataset.FlatSegments.
		return getSeriesID(a[8:]) < getSeriesID(b[8:])
	})
	if err != nil {
		return nil, err
	}
	var maxDur float64
	rec := make([]byte, recSize)
	for _, s := range ds.AllSeries() {
		for j := 0; j < s.NumSegments(); j++ {
			seg := s.Segment(j)
			putF64(rec[0:], seg.T1)
			putSeriesID(rec[8:], s.ID)
			putF64(rec[12:], seg.T2)
			putF64(rec[20:], seg.V1)
			putF64(rec[28:], seg.V2)
			if err := sorter.Add(rec); err != nil {
				return nil, err
			}
			if d := seg.Duration(); d > maxDur {
				maxDur = d
			}
		}
	}
	it, err := sorter.Sort()
	if err != nil {
		return nil, err
	}
	entries := make([]bptree.Entry, 0, ds.NumSegments())
	for {
		r, ok := it.Next()
		if !ok {
			break
		}
		v := make([]byte, exact1ValueSize)
		copy(v, r[8:])
		entries = append(entries, bptree.Entry{Key: getF64(r[0:]), Value: v})
	}
	if err := it.Err(); err != nil {
		return nil, err
	}
	tree, err := bptree.BulkLoad(dev, exact1ValueSize, entries)
	if err != nil {
		return nil, fmt.Errorf("exact1: bulk load: %w", err)
	}
	return &Exact1{dev: dev, tree: tree, m: ds.NumSeries(), maxDur: maxDur}, nil
}

// Name implements Method.
func (e *Exact1) Name() string { return "EXACT1" }

// Device implements Method.
func (e *Exact1) Device() blockio.Device { return e.dev }

// IndexPages implements Method.
func (e *Exact1) IndexPages() int { return e.dev.NumPages() }

// TopK implements Method.
func (e *Exact1) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	items, _, err := e.TopKIOs(k, t1, t2)
	return items, err
}

// TopKIOs implements Method.
func (e *Exact1) TopKIOs(k int, t1, t2 float64) ([]topk.Item, uint64, error) {
	var ios blockio.IOCount
	sums, err := e.runningSums(t1, t2, &ios)
	ios.Fold(e.dev)
	if err != nil {
		return nil, ios.Reads(), err
	}
	return topk.Collect(k, sums), ios.Reads(), nil
}

// Score implements Method. Exact1 has no per-object access path, so
// this performs the same sweep and picks one sum; it exists to satisfy
// the interface (the harness only calls Score on approximate methods
// and on Exact2/Exact3).
func (e *Exact1) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	var ios blockio.IOCount
	sums, err := e.runningSums(t1, t2, &ios)
	ios.Fold(e.dev)
	if err != nil {
		return 0, err
	}
	if int(id) >= len(sums) {
		return 0, fmt.Errorf("exact1: %w: %d", trerr.ErrUnknownSeries, id)
	}
	return sums[id], nil
}

// runningSums performs the leaf sweep, returning σ_i(t1,t2) for all i.
// Its page views are charged to ios.
func (e *Exact1) runningSums(t1, t2 float64, ios *blockio.IOCount) ([]float64, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	sums := make([]float64, e.m)
	cur, err := e.tree.SearchCeilCounted(t1-e.maxDur, ios)
	if errors.Is(err, bptree.ErrNotFound) {
		return sums, nil
	}
	if err != nil {
		return nil, err
	}
	defer cur.Close()
	for {
		segT1 := cur.Key()
		if segT1 > t2 {
			break
		}
		v := cur.Value()
		id := getSeriesID(v[0:])
		seg := tsdata.Segment{T1: segT1, T2: getF64(v[4:]), V1: getF64(v[12:]), V2: getF64(v[20:])}
		sums[id] += seg.IntegralOver(t1, t2)
		if !cur.NextCounted(ios) {
			break
		}
	}
	if cur.Err() != nil {
		return nil, cur.Err()
	}
	return sums, nil
}
