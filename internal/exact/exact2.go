package exact

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// exact2ValueSize is the per-entry payload of an object tree T_i:
// V1, V2 of segment g_{i,ℓ} (its endpoints in time are [previous key,
// key]) plus T1 (the segment's left endpoint, needed because keys of
// neighbouring entries are not co-resident in a page) and the prefix
// aggregate σ_i(I_{i,ℓ}). The segment right endpoint t_{i,ℓ} is the
// tree key.
const exact2ValueSize = 8 + 8 + 8 + 8 // T1, V1, V2, prefix

// Exact2 is the "forest of B+-trees" method: one prefix-sum tree per
// object. A query runs Eq. (2) against every tree.
type Exact2 struct {
	dev   blockio.Device
	trees []*bptree.Tree
	// Per-object domains for query clamping.
	starts, ends []float64
}

// BuildExact2 bulk-loads the m object trees onto dev.
func BuildExact2(dev blockio.Device, ds *tsdata.Dataset) (*Exact2, error) {
	return BuildExact2Parallel(dev, ds, 1)
}

// BuildExact2Parallel bulk-loads the m object trees with up to workers
// goroutines. The forest answers queries identically to the sequential
// build: each tree is built independently and the device serializes
// page allocation, so only the interleaving of page IDs across trees
// differs. Raw-device IO counts match the sequential build too; under
// a BufferPool the interleaving perturbs LRU order, so cached build
// IO can differ run to run. workers <= 1 builds sequentially with
// deterministic page order.
func BuildExact2Parallel(dev blockio.Device, ds *tsdata.Dataset, workers int) (*Exact2, error) {
	m := ds.NumSeries()
	e := &Exact2{
		dev:    dev,
		trees:  make([]*bptree.Tree, m),
		starts: make([]float64, m),
		ends:   make([]float64, m),
	}
	series := ds.AllSeries()
	// buildTree is the single copy of the per-object entry layout,
	// shared by the sequential and parallel paths. Distinct i never
	// collide on e's slices, so no locking is needed around the stores.
	buildTree := func(i int) error {
		s := series[i]
		n := s.NumSegments()
		entries := make([]bptree.Entry, n)
		for j := 0; j < n; j++ {
			seg := s.Segment(j)
			v := make([]byte, exact2ValueSize)
			putF64(v[0:], seg.T1)
			putF64(v[8:], seg.V1)
			putF64(v[16:], seg.V2)
			putF64(v[24:], s.Prefix(j+1))
			entries[j] = bptree.Entry{Key: seg.T2, Value: v}
		}
		tree, err := bptree.BulkLoad(dev, exact2ValueSize, entries)
		if err != nil {
			return fmt.Errorf("exact2: bulk load tree %d: %w", i, err)
		}
		e.trees[i] = tree
		e.starts[i] = s.Start()
		e.ends[i] = s.End()
		return nil
	}
	if workers <= 1 {
		for i := 0; i < m; i++ {
			if err := buildTree(i); err != nil {
				return nil, err
			}
		}
		return e, nil
	}
	if workers > m {
		workers = m
	}
	var (
		wg     sync.WaitGroup
		next   = make(chan int)
		mu     sync.Mutex
		ferr   error
		failed atomic.Bool
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if failed.Load() {
					continue // drain without building once a tree failed
				}
				if err := buildTree(i); err != nil {
					failed.Store(true)
					mu.Lock()
					if ferr == nil {
						ferr = err
					}
					mu.Unlock()
				}
			}
		}()
	}
	for i := 0; i < m && !failed.Load(); i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	if ferr != nil {
		return nil, ferr
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
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	sums := make([]float64, len(e.trees))
	for i := range e.trees {
		s, err := e.Score(tsdata.SeriesID(i), t1, t2)
		if err != nil {
			return nil, err
		}
		sums[i] = s
	}
	return collectTopK(k, sums), nil
}

// Score implements Method: Eq. (2) with two O(log_B n_i) searches.
func (e *Exact2) Score(id tsdata.SeriesID, t1, t2 float64) (float64, error) {
	if id < 0 || int(id) >= len(e.trees) {
		return 0, fmt.Errorf("exact2: %w: %d", trerr.ErrUnknownSeries, id)
	}
	if err := validateQuery(t1, t2); err != nil {
		return 0, err
	}
	// Clamp to the object's domain; g_i is 0 outside it.
	if t1 < e.starts[id] {
		t1 = e.starts[id]
	}
	if t2 > e.ends[id] {
		t2 = e.ends[id]
	}
	if t2 <= t1 {
		return 0, nil
	}
	hi, err := e.sigmaTo(id, t2)
	if err != nil {
		return 0, err
	}
	lo, err := e.sigmaTo(id, t1)
	if err != nil {
		return 0, err
	}
	return hi - lo, nil
}

// sigmaTo returns σ_i(t_{i,0}, t) for t within the object's domain:
// locate the entry e_L whose key t_{i,L} is the first >= t, then
// subtract the part of segment g_L beyond t from the stored prefix.
func (e *Exact2) sigmaTo(id tsdata.SeriesID, t float64) (float64, error) {
	cur, err := e.trees[id].SearchCeil(t)
	if errors.Is(err, bptree.ErrNotFound) {
		// t is past the last key: the object's domain was clamped, so
		// this is only reachable through floating-point equality edge
		// cases; the full prefix applies.
		_, v, lerr := e.trees[id].Last()
		if lerr != nil {
			return 0, lerr
		}
		return getF64(v[24:]), nil
	}
	if err != nil {
		return 0, err
	}
	defer cur.Close()
	key := cur.Key()
	v := cur.Value()
	seg := tsdata.Segment{T1: getF64(v[0:]), T2: key, V1: getF64(v[8:]), V2: getF64(v[16:])}
	prefix := getF64(v[24:])
	return prefix - seg.IntegralOver(t, key), nil
}

// NumTrees returns m (diagnostics).
func (e *Exact2) NumTrees() int { return len(e.trees) }
