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
// dataset (Exact2's per-object start/end clamps and its run
// directory) is therefore not part of the state: Restore rederives it
// from the restored series, and checks the restored structure's entry
// count against them.

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

// Exact2State is Exact2's handle state: the page of the packed run's
// first slot. The rest of the directory — each run's first slot and the
// keys at the page boundaries it crosses — is rederived from the
// dataset.
type Exact2State struct {
	FirstPage blockio.PageID
}

// State captures the handle state for checkpointing.
func (e *Exact2) State() Exact2State { return Exact2State{FirstPage: e.first} }

// RestoreExact2 reattaches the packed runs to their restored device
// image. It rederives the directory from ds, then checks that the
// slots span exactly NumSegments, that the last slot's page exists, and
// that the first and last slots hold the dataset's first and last
// segments, so a forged first page or a short page image is refused.
func RestoreExact2(dev blockio.Device, ds *tsdata.Dataset, st Exact2State) (*Exact2, error) {
	e, err := newExact2Dir(dev, ds, st.FirstPage)
	if err != nil {
		return nil, fmt.Errorf("%v: %w", err, trerr.ErrBadSnapshot)
	}
	n := e.runs[len(e.runs)-1].off
	if n != ds.NumSegments() {
		return nil, fmt.Errorf("exact2: restore: %d slots for %d segments: %w", n, ds.NumSegments(), trerr.ErrBadSnapshot)
	}
	last := st.FirstPage + blockio.PageID((n-1)/e.perPage)
	if st.FirstPage < 0 || int64(last) >= int64(dev.NumPages()) {
		return nil, fmt.Errorf("exact2: restore: slots on pages [%d,%d] of %d: %w",
			st.FirstPage, last, dev.NumPages(), trerr.ErrBadSnapshot)
	}
	series := ds.AllSeries()
	for _, c := range []struct {
		slot int
		seg  tsdata.Segment
	}{
		{0, series[0].Segment(0)},
		{n - 1, series[len(series)-1].Segment(series[len(series)-1].NumSegments() - 1)},
	} {
		v, err := blockio.View(dev, st.FirstPage+blockio.PageID(c.slot/e.perPage))
		if err != nil {
			return nil, fmt.Errorf("exact2: restore: %v: %w", err, trerr.ErrBadSnapshot)
		}
		b := v.Data()[c.slot%e.perPage*exact2SlotSize:]
		ok := getF64(b[0:]) == c.seg.T2 && getF64(b[8:]) == c.seg.T1
		v.Release()
		if !ok {
			return nil, fmt.Errorf("exact2: restore: slot %d does not hold its segment: %w", c.slot, trerr.ErrBadSnapshot)
		}
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
