// Package bptree implements a disk-based B+-tree over a blockio.Device.
//
// Keys are float64 time instances; values are fixed-size opaque byte
// payloads (the caller encodes segments, prefix sums, or page pointers
// into them). A tree is built once by bulk-loading sorted input and is
// read-only afterwards: it supports ceiling search (first entry with
// key >= x), forward range scans via leaf sibling links, and a lookup
// of the last entry.
//
// This is the workhorse index of the paper: EXACT1 keys all N segments
// by left endpoint and QUERY1 nests trees over breakpoints (§2, §3.2).
// (The paper's EXACT2 forest of one tree per object is stored as packed
// runs instead; see internal/exact.)
package bptree

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"temporalrank/internal/blockio"
)

// Entry is one key/value pair. Value length must equal the tree's
// configured ValueSize.
type Entry struct {
	Key   float64
	Value []byte
}

// Tree is a B+-tree handle. The zero value is not usable; create trees
// with BulkLoad.
type Tree struct {
	dev       blockio.Device
	valueSize int

	root       blockio.PageID
	height     int // 1 = root is a leaf
	numEntries int

	// Capacities derived from the block size.
	leafCap     int
	internalCap int // max number of keys in an internal node
}

const (
	leafHeaderSize     = 1 + 2 + 8 // type, count, next
	internalHeaderSize = 1 + 2     // type, count
	keySize            = 8
	childSize          = 8
)

var (
	// ErrNotFound is returned by searches that run off the end of the
	// key space.
	ErrNotFound = errors.New("bptree: not found")
	// ErrBadValueSize is returned when an entry's value length differs
	// from the tree's ValueSize.
	ErrBadValueSize = errors.New("bptree: value size mismatch")
)

// newEmpty creates an empty tree on dev whose entries carry
// valueSize-byte payloads.
func newEmpty(dev blockio.Device, valueSize int) (*Tree, error) {
	t := &Tree{dev: dev, valueSize: valueSize}
	if err := t.computeCaps(); err != nil {
		return nil, err
	}
	rootPage, err := dev.Alloc()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, dev.BlockSize())
	initLeaf(buf)
	if err := dev.Write(rootPage, buf); err != nil {
		return nil, err
	}
	t.root = rootPage
	t.height = 1
	return t, nil
}

func (t *Tree) computeCaps() error {
	bs := t.dev.BlockSize()
	entry := keySize + t.valueSize
	t.leafCap = (bs - leafHeaderSize) / entry
	t.internalCap = (bs - internalHeaderSize - childSize) / (keySize + childSize)
	if t.leafCap < 2 || t.internalCap < 2 {
		return fmt.Errorf("bptree: block size %d too small for value size %d", bs, t.valueSize)
	}
	// Node pages store their entry counts as uint16.
	if t.leafCap > math.MaxUint16 || t.internalCap > math.MaxUint16 {
		return fmt.Errorf("bptree: block size %d fits %d leaf and %d internal entries per page, over the page count's limit of %d",
			bs, t.leafCap, t.internalCap, math.MaxUint16)
	}
	return nil
}

// ValueSize returns the configured payload size.
func (t *Tree) ValueSize() int { return t.valueSize }

// Len returns the number of entries.
func (t *Tree) Len() int { return t.numEntries }

// Height returns the tree height (1 for a lone leaf).
func (t *Tree) Height() int { return t.height }

// Root exposes the root page (for meta-persistence by callers).
func (t *Tree) Root() blockio.PageID { return t.root }

// LeafCapacity returns the max entries per leaf (fanout diagnostics).
func (t *Tree) LeafCapacity() int { return t.leafCap }

// Meta is the handful of fields that, together with the device holding
// the node pages, fully determine a Tree. Snapshot checkpoints persist
// it alongside the raw page image; Open reattaches.
type Meta struct {
	Root       blockio.PageID
	Height     int
	NumEntries int
	ValueSize  int
}

// Meta captures the tree's persistent handle state.
func (t *Tree) Meta() Meta {
	return Meta{Root: t.root, Height: t.height, NumEntries: t.numEntries, ValueSize: t.valueSize}
}

// Open reattaches a tree to node pages already present on dev (the
// restore path — no nodes are rebuilt). The root page is read once to
// verify it exists and its node kind matches the recorded height.
func Open(dev blockio.Device, m Meta) (*Tree, error) {
	if m.Height < 1 || m.NumEntries < 0 || m.ValueSize < 1 {
		return nil, fmt.Errorf("bptree: invalid meta %+v", m)
	}
	t := &Tree{dev: dev, valueSize: m.ValueSize, root: m.Root, height: m.Height, numEntries: m.NumEntries}
	if err := t.computeCaps(); err != nil {
		return nil, err
	}
	v, err := blockio.View(dev, m.Root)
	if err != nil {
		return nil, fmt.Errorf("bptree: open root %d: %w", m.Root, err)
	}
	rootIsLeaf := isLeaf(v.Data())
	v.Release()
	if rootIsLeaf != (m.Height == 1) {
		return nil, fmt.Errorf("bptree: root node kind contradicts height %d", m.Height)
	}
	return t, nil
}

// --- page codecs ---------------------------------------------------

func initLeaf(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = 1
	putPageID(buf[3:], blockio.InvalidPage)
}

func initInternal(buf []byte) {
	for i := range buf {
		buf[i] = 0
	}
	buf[0] = 0
}

func isLeaf(buf []byte) bool { return buf[0] == 1 }

func leafCount(buf []byte) int       { return int(binary.LittleEndian.Uint16(buf[1:])) }
func setLeafCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[1:], uint16(n)) }

func leafNext(buf []byte) blockio.PageID       { return getPageID(buf[3:]) }
func setLeafNext(buf []byte, p blockio.PageID) { putPageID(buf[3:], p) }

func (t *Tree) leafKey(buf []byte, i int) float64 {
	off := leafHeaderSize + i*(keySize+t.valueSize)
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

func (t *Tree) leafValue(buf []byte, i int) []byte {
	off := leafHeaderSize + i*(keySize+t.valueSize) + keySize
	return buf[off : off+t.valueSize]
}

func (t *Tree) setLeafEntry(buf []byte, i int, key float64, value []byte) {
	off := leafHeaderSize + i*(keySize+t.valueSize)
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(key))
	copy(buf[off+keySize:off+keySize+t.valueSize], value)
}

func internalCount(buf []byte) int       { return int(binary.LittleEndian.Uint16(buf[1:])) }
func setInternalCount(buf []byte, n int) { binary.LittleEndian.PutUint16(buf[1:], uint16(n)) }

func (t *Tree) internalChild(buf []byte, i int) blockio.PageID {
	off := internalHeaderSize + i*childSize
	return getPageID(buf[off:])
}

func (t *Tree) setInternalChild(buf []byte, i int, p blockio.PageID) {
	off := internalHeaderSize + i*childSize
	putPageID(buf[off:], p)
}

func (t *Tree) internalKey(buf []byte, i int) float64 {
	off := internalHeaderSize + (t.internalCap+1)*childSize + i*keySize
	return math.Float64frombits(binary.LittleEndian.Uint64(buf[off:]))
}

func (t *Tree) setInternalKey(buf []byte, i int, k float64) {
	off := internalHeaderSize + (t.internalCap+1)*childSize + i*keySize
	binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(k))
}

func getPageID(b []byte) blockio.PageID {
	return blockio.PageID(int64(binary.LittleEndian.Uint64(b)))
}

func putPageID(b []byte, p blockio.PageID) {
	binary.LittleEndian.PutUint64(b, uint64(int64(p)))
}

// --- search ----------------------------------------------------------

// Cursor iterates leaf entries in key order, decoding in place from a
// zero-copy page view of the current leaf. Cursors are returned by
// value (no per-search heap allocation); the caller must Close the
// cursor when iteration ends to release the view — on a pooled device
// an open cursor pins its leaf frame.
type Cursor struct {
	t    *Tree
	page blockio.PageID
	view blockio.PageView
	idx  int
	err  error
}

// SearchCeil positions a cursor at the first entry with key >= x.
// Returns ErrNotFound when every key is < x (or the tree is empty);
// the cursor needs no Close on any error return. The descent holds at
// most one page view at a time (each internal node is released before
// its child is mapped), so a search never pins more than one frame.
// Each page view, the cursor's too, is counted on the device as it is
// taken.
func (t *Tree) SearchCeil(x float64) (Cursor, error) {
	return t.SearchCeilCounted(x, nil)
}

// SearchCeilCounted is SearchCeil charging the search's page views to
// ios (see blockio.IOCount.View); NextCounted charges the walk's.
func (t *Tree) SearchCeilCounted(x float64, ios *blockio.IOCount) (Cursor, error) {
	page := t.root
	var v blockio.PageView
	for {
		var err error
		v, err = ios.View(t.dev, page)
		if err != nil {
			return Cursor{}, err
		}
		buf := v.Data()
		if isLeaf(buf) {
			break
		}
		n := internalCount(buf)
		// Descend to the first child that can contain a key >= x:
		// child i covers keys < key[i]; child j where j = #(key_i <= x).
		j := 0
		for j < n && t.internalKey(buf, j) <= x {
			j++
		}
		page = t.internalChild(buf, j)
		v.Release()
	}
	c := Cursor{t: t, page: page, view: v}
	buf := c.view.Data()
	n := leafCount(buf)
	// Binary search within the leaf for first key >= x.
	lo, hi := 0, n
	for lo < hi {
		mid := (lo + hi) / 2
		if t.leafKey(buf, mid) < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	c.idx = lo
	if lo == n {
		// All keys in this leaf < x; the ceil (if any) is the first
		// entry of the next leaf.
		if !c.advanceLeaf(ios) {
			c.Close()
			if c.err != nil {
				return Cursor{}, c.err
			}
			return Cursor{}, ErrNotFound
		}
	}
	if leafCount(c.view.Data()) == 0 {
		c.Close()
		return Cursor{}, ErrNotFound
	}
	return c, nil
}

// Min positions a cursor at the smallest entry.
func (t *Tree) Min() (Cursor, error) {
	return t.SearchCeil(math.Inf(-1))
}

// Key returns the cursor's current key.
func (c *Cursor) Key() float64 { return c.t.leafKey(c.view.Data(), c.idx) }

// Value returns the cursor's current value. The slice aliases the
// cursor's page view and is invalidated by Next and Close.
func (c *Cursor) Value() []byte { return c.t.leafValue(c.view.Data(), c.idx) }

// Next advances to the following entry; it reports false at the end of
// the tree or on IO error (check Err). A page view is counted on the
// device as it is taken.
func (c *Cursor) Next() bool { return c.NextCounted(nil) }

// NextCounted is Next charging a page view to ios (see
// blockio.IOCount.View).
func (c *Cursor) NextCounted(ios *blockio.IOCount) bool {
	c.idx++
	if c.idx < leafCount(c.view.Data()) {
		return true
	}
	return c.advanceLeaf(ios)
}

func (c *Cursor) advanceLeaf(ios *blockio.IOCount) bool {
	next := leafNext(c.view.Data())
	for next != blockio.InvalidPage {
		v, err := ios.View(c.t.dev, next)
		if err != nil {
			c.err = err
			return false
		}
		c.view.Release()
		c.view = v
		c.page = next
		c.idx = 0
		if leafCount(v.Data()) > 0 {
			return true
		}
		next = leafNext(v.Data())
	}
	return false
}

// Close releases the cursor's leaf view. Idempotent; safe on the zero
// cursor. Every cursor obtained from SearchCeil/Min must be closed
// once iteration (or value decoding) is done.
func (c *Cursor) Close() { c.view.Release() }

// Err returns the IO error that stopped iteration, if any.
func (c *Cursor) Err() error { return c.err }

// --- bulk load -------------------------------------------------------

// BulkLoad builds a tree from entries already sorted by key (ties
// allowed). It writes leaves left to right at the given fill factor
// and builds internal levels bottom-up — the O((N/B) log_B N) build
// the paper assumes for all its B+-trees.
func BulkLoad(dev blockio.Device, valueSize int, entries []Entry) (*Tree, error) {
	t := &Tree{dev: dev, valueSize: valueSize}
	if err := t.computeCaps(); err != nil {
		return nil, err
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].Key < entries[i-1].Key {
			return nil, fmt.Errorf("bptree: bulk-load input not sorted at %d", i)
		}
	}
	if len(entries) == 0 {
		return newEmpty(dev, valueSize)
	}
	buf := make([]byte, dev.BlockSize())

	// Level 0: leaves.
	type nodeRef struct {
		page   blockio.PageID
		minKey float64
	}
	var level []nodeRef
	var prevLeaf blockio.PageID = blockio.InvalidPage
	var prevBuf []byte
	for start := 0; start < len(entries); start += t.leafCap {
		end := start + t.leafCap
		if end > len(entries) {
			end = len(entries)
		}
		page, err := dev.Alloc()
		if err != nil {
			return nil, err
		}
		initLeaf(buf)
		for i := start; i < end; i++ {
			e := entries[i]
			if len(e.Value) != valueSize {
				return nil, fmt.Errorf("%w: got %d, want %d", ErrBadValueSize, len(e.Value), valueSize)
			}
			t.setLeafEntry(buf, i-start, e.Key, e.Value)
		}
		setLeafCount(buf, end-start)
		if prevLeaf != blockio.InvalidPage {
			setLeafNext(prevBuf, page)
			if err := dev.Write(prevLeaf, prevBuf); err != nil {
				return nil, err
			}
		}
		prevLeaf = page
		prevBuf = append(prevBuf[:0], buf...)
		level = append(level, nodeRef{page: page, minKey: entries[start].Key})
	}
	if err := dev.Write(prevLeaf, prevBuf); err != nil {
		return nil, err
	}
	t.numEntries = len(entries)
	t.height = 1

	// Internal levels.
	for len(level) > 1 {
		var next []nodeRef
		fan := t.internalCap + 1 // children per internal node
		for start := 0; start < len(level); start += fan {
			end := start + fan
			if end > len(level) {
				end = len(level)
			}
			page, err := dev.Alloc()
			if err != nil {
				return nil, err
			}
			initInternal(buf)
			for i := start; i < end; i++ {
				t.setInternalChild(buf, i-start, level[i].page)
				if i > start {
					t.setInternalKey(buf, i-start-1, level[i].minKey)
				}
			}
			setInternalCount(buf, end-start-1)
			if err := dev.Write(page, buf); err != nil {
				return nil, err
			}
			next = append(next, nodeRef{page: page, minKey: level[start].minKey})
		}
		level = next
		t.height++
	}
	t.root = level[0].page
	return t, nil
}

// Last returns the largest entry (key, value) in O(height) IOs; QUERY1
// uses it to snap a window end past the last breakpoint. The value is
// copied out, so no view outlives the call. The page views are charged
// to ios (see blockio.IOCount.View; nil counts them on the device).
func (t *Tree) Last(ios *blockio.IOCount) (float64, []byte, error) {
	page := t.root
	for {
		v, err := ios.View(t.dev, page)
		if err != nil {
			return 0, nil, err
		}
		buf := v.Data()
		if isLeaf(buf) {
			n := leafCount(buf)
			if n == 0 {
				v.Release()
				return 0, nil, ErrNotFound
			}
			val := make([]byte, t.valueSize)
			copy(val, t.leafValue(buf, n-1))
			key := t.leafKey(buf, n-1)
			v.Release()
			return key, val, nil
		}
		page = t.internalChild(buf, internalCount(buf))
		v.Release()
	}
}
