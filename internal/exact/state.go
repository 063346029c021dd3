package exact

import (
	"fmt"

	"temporalrank/internal/blockio"
	"temporalrank/internal/bptree"
	"temporalrank/internal/itree"
	"temporalrank/internal/trerr"
	"temporalrank/internal/tsdata"
)

// This file is the persistence boundary of the exact methods. Every
// structure's node pages already live on its blockio.Device, so a
// checkpoint stores (a) the raw device image and (b) the small typed
// State captured here; Restore reattaches handles to the restored
// pages without rebuilding anything.
//
// An index is immutable once built, so it always covers exactly the
// dataset it was built over. Whatever an index derives from that
// dataset (Exact2's per-object start/end clamps) is therefore not part
// of the state: Restore rederives it from the restored series, and
// checks the restored structure's entry count against them.

// Exact1State is Exact1's handle state.
type Exact1State struct {
	Tree   bptree.Meta
	MaxDur float64
}

// State captures the handle state for checkpointing.
func (e *Exact1) State() Exact1State {
	return Exact1State{Tree: e.tree.Meta(), MaxDur: e.maxDur}
}

// RestoreExact1 reattaches an Exact1 to its restored device image.
func RestoreExact1(dev blockio.Device, ds *tsdata.Dataset, st Exact1State) (*Exact1, error) {
	tree, err := bptree.Open(dev, st.Tree)
	if err != nil {
		return nil, fmt.Errorf("exact1: restore: %v: %w", err, trerr.ErrBadSnapshot)
	}
	if tree.Len() != ds.NumSegments() {
		return nil, fmt.Errorf("exact1: restore: tree has %d entries for %d segments: %w",
			tree.Len(), ds.NumSegments(), trerr.ErrBadSnapshot)
	}
	return &Exact1{dev: dev, tree: tree, m: ds.NumSeries(), maxDur: st.MaxDur}, nil
}

// Exact2State is Exact2's handle state: one tree meta per object.
type Exact2State struct {
	Trees []bptree.Meta
}

// State captures the handle state for checkpointing.
func (e *Exact2) State() Exact2State {
	st := Exact2State{Trees: make([]bptree.Meta, len(e.trees))}
	for i, t := range e.trees {
		st.Trees[i] = t.Meta()
	}
	return st
}

// RestoreExact2 reattaches the forest to its restored device image.
func RestoreExact2(dev blockio.Device, ds *tsdata.Dataset, st Exact2State) (*Exact2, error) {
	m := ds.NumSeries()
	if len(st.Trees) != m {
		return nil, fmt.Errorf("exact2: restore: %d trees for %d objects: %w", len(st.Trees), m, trerr.ErrBadSnapshot)
	}
	e := &Exact2{
		dev:    dev,
		trees:  make([]*bptree.Tree, m),
		starts: make([]float64, m),
		ends:   make([]float64, m),
	}
	for i, s := range ds.AllSeries() {
		t, err := bptree.Open(dev, st.Trees[i])
		if err != nil {
			return nil, fmt.Errorf("exact2: restore tree %d: %v: %w", i, err, trerr.ErrBadSnapshot)
		}
		if t.Len() != s.NumSegments() {
			return nil, fmt.Errorf("exact2: restore tree %d: %d entries for %d segments: %w",
				i, t.Len(), s.NumSegments(), trerr.ErrBadSnapshot)
		}
		e.trees[i] = t
		e.starts[i] = s.Start()
		e.ends[i] = s.End()
	}
	return e, nil
}

// Exact3State is Exact3's handle state.
type Exact3State struct {
	Tree               itree.Meta
	DomainLo, DomainHi float64
}

// State captures the handle state for checkpointing.
func (e *Exact3) State() Exact3State {
	return Exact3State{Tree: e.tree.Meta(), DomainLo: e.domainLo, DomainHi: e.domainHi}
}

// RestoreExact3 reattaches an Exact3 to its restored device image.
func RestoreExact3(dev blockio.Device, ds *tsdata.Dataset, st Exact3State) (*Exact3, error) {
	// The stabs decode records at fixed offsets.
	if st.Tree.PayloadSize != exact3PayloadSize {
		return nil, fmt.Errorf("exact3: restore: payload of %d bytes, want %d: %w",
			st.Tree.PayloadSize, exact3PayloadSize, trerr.ErrBadSnapshot)
	}
	tree, err := itree.Open(dev, st.Tree)
	if err != nil {
		return nil, fmt.Errorf("exact3: restore: %v: %w", err, trerr.ErrBadSnapshot)
	}
	// BuildExact3 stores every segment, one right sentinel per object,
	// and a left sentinel for each object starting after DomainLo (all
	// of them, unless rounding swallowed the padding).
	m := ds.NumSeries()
	want := ds.NumSegments() + m
	for _, s := range ds.AllSeries() {
		if s.Start() > st.DomainLo {
			want++
		}
	}
	if tree.Len() != want {
		return nil, fmt.Errorf("exact3: restore: tree has %d intervals for %d segments of %d objects: %w",
			tree.Len(), ds.NumSegments(), m, trerr.ErrBadSnapshot)
	}
	return &Exact3{dev: dev, tree: tree, m: m, domainLo: st.DomainLo, domainHi: st.DomainHi}, nil
}
