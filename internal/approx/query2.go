package approx

import (
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/topk"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// Query2 is the dyadic-interval structure: a balanced binary tree over
// the r-1 elementary breakpoint gaps; each node materializes the
// top-kmax list of its spanned interval [b_lo, b_hi]. Any snapped query
// interval decomposes into at most 2·log r node intervals whose lists
// are merged by summing scores per object — the (ε, 2·log r)-
// approximation of Lemma 4/5, with Θ(r·kmax/B) space.
type Query2 struct {
	dev  blockio.Device
	bps  *breakpoint.Set
	kmax int

	// Node directory (in memory, O(r); the lists live on the device —
	// the paper likewise keeps its binary tree over B resident while
	// charging IO for the top-k lists).
	nodes []dyadicNode
	root  int
}

type dyadicNode struct {
	lo, hi      int // gap range [lo, hi): covers time [b_lo, b_hi]
	left, right int // children node indices, -1 for leaves
	list        listRef
}

// BuildQuery2 materializes the O(r) dyadic interval lists.
func BuildQuery2(dev blockio.Device, ds *tsdata.Dataset, bps *breakpoint.Set, kmax int) (*Query2, error) {
	if kmax < 1 {
		return nil, fmt.Errorf("approx: kmax must be >= 1, got %d", kmax)
	}
	if err := bps.Validate(); err != nil {
		return nil, err
	}
	prefix := prefixAtBreakpoints(ds, bps.Times)
	m := ds.NumSeries()
	packer, err := newListPacker(dev)
	if err != nil {
		return nil, err
	}
	q := &Query2{dev: dev, bps: bps, kmax: kmax}

	var build func(lo, hi int) (int, error)
	build = func(lo, hi int) (int, error) {
		idx := len(q.nodes)
		q.nodes = append(q.nodes, dyadicNode{lo: lo, hi: hi, left: -1, right: -1})
		// Materialize this node's top-kmax list over [b_lo, b_hi].
		c := topk.NewCollector(kmax)
		for i := 0; i < m; i++ {
			c.Add(tsdata.SeriesID(i), prefix[i][hi]-prefix[i][lo])
		}
		ref, err := packer.Put(c.Results())
		if err != nil {
			return 0, err
		}
		q.nodes[idx].list = ref
		if hi-lo > 1 {
			mid := (lo + hi) / 2
			l, err := build(lo, mid)
			if err != nil {
				return 0, err
			}
			rr, err := build(mid, hi)
			if err != nil {
				return 0, err
			}
			q.nodes[idx].left = l
			q.nodes[idx].right = rr
		}
		return idx, nil
	}
	root, err := build(0, bps.R()-1)
	if err != nil {
		return nil, err
	}
	if err := packer.Flush(); err != nil {
		return nil, err
	}
	q.root = root
	return q, nil
}

// KMax returns the largest supported k.
func (q *Query2) KMax() int { return q.kmax }

// Breakpoints returns the underlying breakpoint set.
func (q *Query2) Breakpoints() *breakpoint.Set { return q.bps }

// NumNodes returns the number of dyadic intervals (diagnostics; < 2r).
func (q *Query2) NumNodes() int { return len(q.nodes) }

// Decompose returns the canonical node cover of gap range [a, b): at
// most 2·log r nodes (exported for the candidate-set property tests).
func (q *Query2) Decompose(a, b int) []int {
	var out []int
	var rec func(n int)
	rec = func(n int) {
		node := q.nodes[n]
		if a <= node.lo && node.hi <= b {
			out = append(out, n)
			return
		}
		if node.left < 0 {
			return
		}
		mid := (node.lo + node.hi) / 2
		if a < mid {
			rec(node.left)
		}
		if b > mid {
			rec(node.right)
		}
	}
	if a < b {
		rec(q.root)
	}
	return out
}

// TopK answers the approximate query: snap, decompose into dyadic
// nodes, merge their top-kmax lists by summing per-object scores, and
// return the k best of the candidate set K (|K| <= 2k·log r).
func (q *Query2) TopK(k int, t1, t2 float64) ([]topk.Item, error) {
	cands, err := q.Candidates(k, t1, t2)
	if err != nil {
		return nil, err
	}
	c := topk.NewCollector(k)
	for id, score := range cands {
		c.Add(id, score)
	}
	return c.Results(), nil
}

// Candidates returns the merged candidate set K for a query: object ->
// summed score over the covering dyadic intervals. APPX2 ranks K by
// these sums; APPX2+ rescores K exactly.
func (q *Query2) Candidates(k int, t1, t2 float64) (map[tsdata.SeriesID]float64, error) {
	if err := validateQuery(t1, t2); err != nil {
		return nil, err
	}
	if k > q.kmax {
		return nil, fmt.Errorf("approx: %w: k=%d kmax=%d", trerr.ErrKTooLarge, k, q.kmax)
	}
	_, a := q.bps.Snap(t1)
	_, b := q.bps.Snap(t2)
	cands := make(map[tsdata.SeriesID]float64)
	if a >= b {
		return cands, nil
	}
	for _, n := range q.Decompose(a, b) {
		items, err := readList(q.dev, q.nodes[n].list, k)
		if err != nil {
			return nil, err
		}
		for _, it := range items {
			cands[it.ID] += it.Score
		}
	}
	return cands, nil
}
