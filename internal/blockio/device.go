// Package blockio provides the external-memory substrate for every
// disk-based index in this library. It substitutes for the TPIE library
// the paper's C++ implementation uses: fixed-size blocks, explicit
// read/write accounting, memory- and file-backed devices, and an
// optional write-through CLOCK read cache (BufferPool).
//
// All indexes (internal/bptree, internal/itree, and the approximate
// query structures) serialize their nodes onto Device pages, so the IO
// counts reported by Stats follow the same cost model as the paper's
// experiments (Figures 12c, 13c, 14c, 16a, 17a, 19c).
package blockio

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// DefaultBlockSize matches the 4KB TPIE block size used in §5.
const DefaultBlockSize = 4096

// PageID names a block on a Device. Valid IDs start at 0; InvalidPage
// is the nil pointer of the page world.
type PageID int64

// InvalidPage is the sentinel "no page" value.
const InvalidPage PageID = -1

// Stats counts physical block operations on a device.
type Stats struct {
	Reads  uint64 // blocks read
	Writes uint64 // blocks written
	Allocs uint64 // blocks allocated
}

// Total returns Reads+Writes, the paper's "I/Os" metric.
func (s Stats) Total() uint64 { return s.Reads + s.Writes }

// Sub returns the element-wise difference s - t (for measuring a
// window of operations).
func (s Stats) Sub(t Stats) Stats {
	return Stats{
		Reads:  s.Reads - t.Reads,
		Writes: s.Writes - t.Writes,
		Allocs: s.Allocs - t.Allocs,
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d", s.Reads, s.Writes, s.Allocs)
}

// counters is the lock-free accounting shared by all devices: each
// field is an atomic, so Stats()/ResetStats() never contend with (or
// tear under) concurrent queries. Alloc, Read, Write and the device's
// own View add one per operation; a query's views are added in one
// batch when the query ends (IOCount.Fold). Counter updates are
// monotonic adds; a Snapshot taken during concurrent traffic is a
// consistent-enough point-in-time reading for the paper's IO metric
// (each field individually exact once the queries in flight have
// ended).
type counters struct {
	reads  atomic.Uint64
	writes atomic.Uint64
	allocs atomic.Uint64
}

// Snapshot materializes the counters as a plain Stats value.
func (c *counters) Snapshot() Stats {
	return Stats{
		Reads:  c.reads.Load(),
		Writes: c.writes.Load(),
		Allocs: c.allocs.Load(),
	}
}

// Reset zeroes all counters.
func (c *counters) Reset() {
	c.reads.Store(0)
	c.writes.Store(0)
	c.allocs.Store(0)
}

// Common errors.
var (
	ErrPageBounds  = errors.New("blockio: page id out of bounds")
	ErrShortBuffer = errors.New("blockio: buffer smaller than block size")
	ErrClosed      = errors.New("blockio: device closed")
)

// Syncer is implemented by devices whose buffered writes can be forced
// to stable storage (FileDevice fsyncs; wrapper devices delegate). Purely in-memory devices do not implement it — their
// writes are "durable" for the lifetime of the process by construction.
type Syncer interface {
	Sync() error
}

// SyncDevice makes d's completed writes durable when the device (or the
// wrapper chain ending at it) supports Sync, and is a no-op otherwise.
// A snapshot's Commit calls this once its header is written, so the
// barrier degrades gracefully on memory-backed devices.
func SyncDevice(d Device) error {
	if s, ok := d.(Syncer); ok {
		return s.Sync()
	}
	return nil
}

// Device is a block device: a growable array of fixed-size pages with
// IO accounting. Pages are never freed: an index is written once onto
// a fresh device and a rebuild writes a new one, so page IDs are dense
// in [0, NumPages). Implementations must be safe for concurrent use.
type Device interface {
	// BlockSize returns the fixed page size in bytes.
	BlockSize() int
	// Alloc reserves a new zeroed page and returns its ID.
	Alloc() (PageID, error)
	// Read copies page id into buf (len(buf) >= BlockSize()).
	Read(id PageID, buf []byte) error
	// Write stores data (len <= BlockSize()) as the page's content.
	Write(id PageID, data []byte) error
	// NumPages returns the number of allocated pages, which is also
	// one past the highest valid PageID.
	NumPages() int
	// Stats returns the operation counters since creation or the last
	// ResetStats.
	Stats() Stats
	// ResetStats zeroes the counters (page contents are untouched).
	ResetStats()
	// Close releases resources. Further operations fail with ErrClosed.
	Close() error
}

// MemDevice is an in-memory Device. It is the default substrate for
// tests and benchmarks: "IOs" are counted exactly as a disk-backed
// device would count them, without the wall-clock noise of a real disk.
// A view charged to a query's IOCount reaches the device's read count
// when the query folds it, at its end.
//
// Locking. Alloc, Read, Write and Close take the device mutex. Alloc
// appends the new page under it and then publishes the whole page
// table with one atomic store, so View and NumPages take no lock: they
// load the last published table, whose pages never move (a page's
// bytes are allocated once and only ever overwritten in place by
// Write). Close publishes a nil table, which every later operation
// reports as ErrClosed.
type MemDevice struct {
	mu        sync.Mutex
	blockSize int
	pages     atomic.Pointer[[][]byte]
	stats     counters
}

// NewMemDevice creates an in-memory device with the given block size
// (DefaultBlockSize if size <= 0).
func NewMemDevice(size int) *MemDevice {
	if size <= 0 {
		size = DefaultBlockSize
	}
	d := &MemDevice{blockSize: size}
	d.pages.Store(new([][]byte))
	return d
}

// BlockSize implements Device.
func (d *MemDevice) BlockSize() int { return d.blockSize }

// Alloc implements Device. The new page is visible to View and
// NumPages once Alloc returns.
func (d *MemDevice) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	cur := d.pages.Load()
	if cur == nil {
		return InvalidPage, ErrClosed
	}
	d.stats.allocs.Add(1)
	id := PageID(len(*cur))
	// The append may fill a slot past the published table's length in
	// the backing array the two share; no reader of that table indexes it.
	next := append(*cur, make([]byte, d.blockSize))
	d.pages.Store(&next)
	return id, nil
}

// table returns the published page table once it holds page id, or
// the error every operation reports for a closed device or an
// out-of-range id.
func (d *MemDevice) table(id PageID) ([][]byte, error) {
	pages := d.pages.Load()
	if pages == nil {
		return nil, ErrClosed
	}
	if id < 0 || int(id) >= len(*pages) {
		return nil, fmt.Errorf("%w: %d of %d", ErrPageBounds, id, len(*pages))
	}
	return *pages, nil
}

// page returns the bytes of page id in the published table (see table).
func (d *MemDevice) page(id PageID) ([]byte, error) {
	pages, err := d.table(id)
	if err != nil {
		return nil, err
	}
	return pages[id], nil
}

// Read implements Device. It keeps the mutex, so a copy never
// overlaps a Write of the same page (a buffer-pool fill may race one).
func (d *MemDevice) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	page, err := d.page(id)
	if err != nil {
		return err
	}
	if len(buf) < d.blockSize {
		return ErrShortBuffer
	}
	d.stats.reads.Add(1)
	copy(buf, page)
	return nil
}

// View implements Viewer: the returned view aliases the page's backing
// array directly — zero copies, counted as one read with an atomic add
// on the device's counter. A query instead views through its own
// IOCount, which loads the page table once per call and skips both the
// add and this call (see IOCount). View takes no lock (see MemDevice),
// so concurrent queries on one device never contend, and a view taken
// before Close keeps reading its page's bytes. MemDevice mutates page
// bytes in place on Write, so callers must serialize views against
// writers of the same page (the root package's indexes never write a
// page after their build), and a released view must not be used after
// a concurrent Write lands.
func (d *MemDevice) View(id PageID) (PageView, error) {
	page, err := d.page(id)
	if err != nil {
		return PageView{}, err
	}
	d.stats.reads.Add(1)
	return PageView{data: page}, nil
}

// bind implements binder: the published page table, whose pages never
// move, so a count may view them until the call ends.
func (d *MemDevice) bind(id PageID) (binding, error) {
	pages, err := d.table(id)
	if err != nil {
		return binding{}, err
	}
	return binding{pages: pages}, nil
}

// addReads adds the reads of a call's IOCount to the device's total.
func (d *MemDevice) addReads(n uint64) { d.stats.reads.Add(n) }

// Write implements Device.
func (d *MemDevice) Write(id PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	page, err := d.page(id)
	if err != nil {
		return err
	}
	if len(data) > d.blockSize {
		return fmt.Errorf("blockio: write of %d bytes exceeds block size %d", len(data), d.blockSize)
	}
	d.stats.writes.Add(1)
	copy(page, data)
	for i := len(data); i < len(page); i++ {
		page[i] = 0
	}
	return nil
}

// NumPages implements Device. Lock-free; 0 once closed.
func (d *MemDevice) NumPages() int {
	if pages := d.pages.Load(); pages != nil {
		return len(*pages)
	}
	return 0
}

// Stats implements Device. Lock-free: safe to call while queries are
// in flight without serializing against the data path. A query's views
// reach the total when the query ends (see IOCount).
func (d *MemDevice) Stats() Stats { return d.stats.Snapshot() }

// ResetStats implements Device. Lock-free. A query in flight adds all
// its reads when it ends, those before the reset too.
func (d *MemDevice) ResetStats() { d.stats.Reset() }

// Close implements Device.
func (d *MemDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.pages.Store(nil)
	return nil
}
