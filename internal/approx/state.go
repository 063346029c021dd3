package approx

import (
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/breakpoint"
	"temporalrank/internal/exact"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// This file is the persistence boundary of the approximate methods.
// The materialized lists and nested trees already live on each index's
// blockio.Device; the State structs capture the in-memory directory on
// top of them — breakpoint tables, tree metas and the dyadic node
// directory — so Restore reattaches a live index without recomputing
// breakpoints or lists.

// ListRef is the exported form of a packed top-k list locator.
type ListRef struct {
	Head  blockio.PageID
	Off   uint16
	Count uint32
}

func (r listRef) export() ListRef   { return ListRef{Head: r.head, Off: r.off, Count: r.count} }
func (r ListRef) internal() listRef { return listRef{head: r.Head, off: r.Off, count: r.Count} }

// Query1State is Query1's handle state.
type Query1State struct {
	KMax  int
	Top   bptree.Meta
	Lower []bptree.Meta
}

// State captures the handle state for checkpointing.
func (q *Query1) State() Query1State {
	st := Query1State{KMax: q.kmax, Top: q.ttop.Meta(), Lower: make([]bptree.Meta, len(q.lower))}
	for i, t := range q.lower {
		st.Lower[i] = t.Meta()
	}
	return st
}

// RestoreQuery1 reattaches a Query1 to its restored device image.
func RestoreQuery1(dev blockio.Device, bps *breakpoint.Set, st Query1State) (*Query1, error) {
	if st.KMax < 1 {
		return nil, fmt.Errorf("approx: restore query1: kmax %d: %w", st.KMax, trerr.ErrBadSnapshot)
	}
	if len(st.Lower) != bps.R() {
		return nil, fmt.Errorf("approx: restore query1: %d lower trees for r=%d: %w",
			len(st.Lower), bps.R(), trerr.ErrBadSnapshot)
	}
	q := &Query1{dev: dev, bps: bps, kmax: st.KMax, lower: make([]*bptree.Tree, len(st.Lower))}
	var err error
	if q.ttop, err = bptree.Open(dev, st.Top); err != nil {
		return nil, fmt.Errorf("approx: restore query1 top tree: %v: %w", err, trerr.ErrBadSnapshot)
	}
	for i, m := range st.Lower {
		if q.lower[i], err = bptree.Open(dev, m); err != nil {
			return nil, fmt.Errorf("approx: restore query1 lower tree %d: %v: %w", i, err, trerr.ErrBadSnapshot)
		}
	}
	return q, nil
}

// Query2Node is the exported form of one dyadic-directory node.
type Query2Node struct {
	Lo, Hi      int
	Left, Right int
	List        ListRef
}

// Query2State is Query2's handle state: the full in-memory node
// directory (the lists it references stay on the device).
type Query2State struct {
	KMax  int
	Root  int
	Nodes []Query2Node
}

// State captures the handle state for checkpointing.
func (q *Query2) State() Query2State {
	st := Query2State{KMax: q.kmax, Root: q.root, Nodes: make([]Query2Node, len(q.nodes))}
	for i, n := range q.nodes {
		st.Nodes[i] = Query2Node{Lo: n.lo, Hi: n.hi, Left: n.left, Right: n.right, List: n.list.export()}
	}
	return st
}

// RestoreQuery2 reattaches a Query2 over m series to its restored
// device image, re-validating the directory's structural invariants so
// a corrupt snapshot cannot smuggle in out-of-range node references or
// children that do not halve their parent's span (which could send the
// cover walk round a cycle).
func RestoreQuery2(dev blockio.Device, bps *breakpoint.Set, m int, st Query2State) (*Query2, error) {
	if st.KMax < 1 {
		return nil, fmt.Errorf("approx: restore query2: kmax %d: %w", st.KMax, trerr.ErrBadSnapshot)
	}
	n := len(st.Nodes)
	if n == 0 || st.Root < 0 || st.Root >= n {
		return nil, fmt.Errorf("approx: restore query2: root %d of %d nodes: %w", st.Root, n, trerr.ErrBadSnapshot)
	}
	q := &Query2{dev: dev, bps: bps, kmax: st.KMax, m: m, root: st.Root, nodes: make([]dyadicNode, n)}
	for i, node := range st.Nodes {
		if node.Lo < 0 || node.Hi <= node.Lo || node.Hi >= bps.R() {
			return nil, fmt.Errorf("approx: restore query2: node %d spans gaps [%d,%d) of r=%d: %w",
				i, node.Lo, node.Hi, bps.R(), trerr.ErrBadSnapshot)
		}
		if node.Left >= n || node.Right >= n || (node.Left < 0) != (node.Right < 0) {
			return nil, fmt.Errorf("approx: restore query2: node %d children (%d,%d): %w",
				i, node.Left, node.Right, trerr.ErrBadSnapshot)
		}
		if node.Left >= 0 {
			mid := (node.Lo + node.Hi) / 2
			l, r := st.Nodes[node.Left], st.Nodes[node.Right]
			if l.Lo != node.Lo || l.Hi != mid || r.Lo != mid || r.Hi != node.Hi {
				return nil, fmt.Errorf("approx: restore query2: node %d children do not split [%d,%d) at %d: %w",
					i, node.Lo, node.Hi, mid, trerr.ErrBadSnapshot)
			}
		}
		q.nodes[i] = dyadicNode{lo: node.Lo, hi: node.Hi, left: node.Left, right: node.Right, list: node.List.internal()}
	}
	return q, nil
}

// restoreBreaks validates and heap-allocates a checkpointed breakpoint
// table.
func restoreBreaks(st breakpoint.Set) (*breakpoint.Set, error) {
	bps := st
	if err := bps.Validate(); err != nil {
		return nil, fmt.Errorf("approx: restore breakpoints: %v: %w", err, trerr.ErrBadSnapshot)
	}
	return &bps, nil
}

// Appx1State is Appx1's full handle state.
type Appx1State struct {
	Kind   Kind
	KMax   int
	Breaks breakpoint.Set
	Q      Query1State
}

// State captures the handle state for checkpointing.
func (a *Appx1) State() Appx1State {
	return Appx1State{Kind: a.kind, KMax: a.kmax, Breaks: *a.bps, Q: a.q.State()}
}

// RestoreAppx1 reattaches an Appx1 to its restored device image.
func RestoreAppx1(dev blockio.Device, ds *tsdata.Dataset, st Appx1State) (*Appx1, error) {
	bps, err := restoreBreaks(st.Breaks)
	if err != nil {
		return nil, err
	}
	q, err := RestoreQuery1(dev, bps, st.Q)
	if err != nil {
		return nil, err
	}
	return &Appx1{appxBase: newAppxBase("APPX1", dev, ds, bps, st.KMax, st.Kind), q: q}, nil
}

// Appx2State is Appx2's full handle state.
type Appx2State struct {
	Kind   Kind
	KMax   int
	Breaks breakpoint.Set
	Q      Query2State
}

// State captures the handle state for checkpointing.
func (a *Appx2) State() Appx2State {
	return Appx2State{Kind: a.kind, KMax: a.kmax, Breaks: *a.bps, Q: a.q.State()}
}

// RestoreAppx2 reattaches an Appx2 to its restored device image.
func RestoreAppx2(dev blockio.Device, ds *tsdata.Dataset, st Appx2State) (*Appx2, error) {
	bps, err := restoreBreaks(st.Breaks)
	if err != nil {
		return nil, err
	}
	q, err := RestoreQuery2(dev, bps, ds.NumSeries(), st.Q)
	if err != nil {
		return nil, err
	}
	return &Appx2{appxBase: newAppxBase("APPX2", dev, ds, bps, st.KMax, st.Kind), q: q}, nil
}

// Appx2PlusState is Appx2Plus's full handle state: the dyadic
// directory plus the rescoring runs' first page, which share one
// device.
type Appx2PlusState struct {
	Kind   Kind
	KMax   int
	Breaks breakpoint.Set
	Q      Query2State
	E2     exact.Exact2State
}

// State captures the handle state for checkpointing.
func (a *Appx2Plus) State() Appx2PlusState {
	return Appx2PlusState{Kind: a.kind, KMax: a.kmax, Breaks: *a.bps, Q: a.q.State(), E2: a.e2.State()}
}

// RestoreAppx2Plus reattaches an Appx2Plus to its restored device
// image.
func RestoreAppx2Plus(dev blockio.Device, ds *tsdata.Dataset, st Appx2PlusState) (*Appx2Plus, error) {
	bps, err := restoreBreaks(st.Breaks)
	if err != nil {
		return nil, err
	}
	q, err := RestoreQuery2(dev, bps, ds.NumSeries(), st.Q)
	if err != nil {
		return nil, err
	}
	e2, err := exact.RestoreExact2(dev, ds, st.E2)
	if err != nil {
		return nil, err
	}
	return &Appx2Plus{appxBase: newAppxBase("APPX2+", dev, ds, bps, st.KMax, st.Kind), q: q, e2: e2}, nil
}
