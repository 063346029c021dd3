package blockio

import (
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
)

// FileDevice is a Device backed by a single file, with one page per
// BlockSize-aligned extent. It gives the benchmarks a real-disk mode;
// correctness tests use it to verify index persistence end-to-end.
//
// Read takes no lock: pread is positional, so concurrent reads share
// the file freely, and numPages and closed are atomics. mu serializes
// Alloc, Write, Sync, Close and the remapping behind View. Alloc
// publishes a page only once the file has grown to hold it, so a Read
// or View that passes the bounds check always reads inside the file. A
// Read racing Close gets either the page or an error, never a panic
// (os.File defers the close until in-flight calls return). A Read
// racing a Write of the same page may see part of each; pages are
// written before they are read, and BufferPool repeats any fill that a
// Write overlapped.
//
// View (on unix systems only; elsewhere blockio.View falls back to a
// pooled copy) serves a page in place from a read-only, shared mmap of
// the file, counted as one read like Read (a view charged to a query's
// IOCount is counted when the query ends, and the count loads the
// published mapping once per call). The mapping is made at the
// first View and published atomically, so a View of a mapped page
// takes no lock; a View past its end maps the file again, under mu, at
// twice the size (mapping past EOF is allowed, and the bounds check
// keeps every view inside the file). Writes go through pwrite and show
// through the shared mapping, so views must be serialized against
// writers of the same page, as MemDevice's are.
//
// Mapping lifetime. A view holds a pointer to the mapping it was cut
// from, and a mapping is unmapped only by a cleanup once neither the
// device nor any view references it. Close marks the device closed,
// closes the file and drops the device's reference, but never unmaps:
// a view that races Close, or the unlink of the file under it, keeps
// reading valid bytes. One failure differs from Read's: if another
// process truncates a live file, a view of a page past the new end
// faults the process, where Read returns an error. Index
// files belong to the process that built them, and snapshot files,
// which a restore only Reads, are never mapped.
type FileDevice struct {
	mu        sync.Mutex
	blockSize int
	f         *os.File
	numPages  atomic.Int64
	stats     counters
	closed    atomic.Bool
	// mapped is the current read-only mapping of the file (nil before
	// the first View and after Close).
	mapped atomic.Pointer[mapping]
}

// mapping is one read-only mmap of a FileDevice's file. It is unmapped
// once unreachable: views point at it, so it outlives the device's own
// reference for as long as any of them is held.
type mapping struct {
	data []byte
}

// OpenFileDevice creates (truncating) a file-backed device at path.
func OpenFileDevice(path string, blockSize int) (*FileDevice, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	return &FileDevice{blockSize: blockSize, f: f}, nil
}

// OpenFileDeviceAt opens the existing file at path as a device WITHOUT
// truncating it: its pages stay readable, and NumPages is derived from
// the file size. A trailing partial page — the signature of a torn
// write or an external truncation — is not counted, so reads of the
// affected ID fail with ErrPageBounds rather than returning garbage.
// A missing file is an error. This is the reopen path snapshot restore
// uses.
func OpenFileDeviceAt(path string, blockSize int) (*FileDevice, error) {
	if blockSize <= 0 {
		blockSize = DefaultBlockSize
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		return nil, fmt.Errorf("blockio: open %s: %w", path, err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("blockio: stat %s: %w", path, err)
	}
	d := &FileDevice{blockSize: blockSize, f: f}
	d.numPages.Store(fi.Size() / int64(blockSize))
	return d, nil
}

// BlockSize implements Device.
func (d *FileDevice) BlockSize() int { return d.blockSize }

// Alloc implements Device.
func (d *FileDevice) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return InvalidPage, ErrClosed
	}
	d.stats.allocs.Add(1)
	n := d.numPages.Load()
	if err := d.f.Truncate((n + 1) * int64(d.blockSize)); err != nil {
		return InvalidPage, fmt.Errorf("blockio: grow: %w", err)
	}
	d.numPages.Store(n + 1)
	return PageID(n), nil
}

func (d *FileDevice) check(id PageID) error {
	if d.closed.Load() {
		return ErrClosed
	}
	if n := d.numPages.Load(); id < 0 || int64(id) >= n {
		return fmt.Errorf("%w: %d of %d", ErrPageBounds, id, n)
	}
	return nil
}

// Read implements Device. It takes no lock (see FileDevice).
func (d *FileDevice) Read(id PageID, buf []byte) error {
	if err := d.check(id); err != nil {
		return err
	}
	if len(buf) < d.blockSize {
		return ErrShortBuffer
	}
	d.stats.reads.Add(1)
	_, err := d.f.ReadAt(buf[:d.blockSize], int64(id)*int64(d.blockSize))
	if errors.Is(err, os.ErrClosed) { // Close won the race after check
		return ErrClosed
	}
	if err != nil {
		return fmt.Errorf("blockio: read page %d: %w", id, err)
	}
	return nil
}

// Write implements Device.
func (d *FileDevice) Write(id PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.check(id); err != nil {
		return err
	}
	if len(data) > d.blockSize {
		return fmt.Errorf("blockio: write of %d bytes exceeds block size %d", len(data), d.blockSize)
	}
	d.stats.writes.Add(1)
	page := make([]byte, d.blockSize)
	copy(page, data)
	if _, err := d.f.WriteAt(page, int64(id)*int64(d.blockSize)); err != nil {
		return fmt.Errorf("blockio: write page %d: %w", id, err)
	}
	return nil
}

// NumPages implements Device. Lock-free.
func (d *FileDevice) NumPages() int { return int(d.numPages.Load()) }

// Stats implements Device. Lock-free. A query's views reach the total
// when the query ends (see IOCount).
func (d *FileDevice) Stats() Stats { return d.stats.Snapshot() }

// ResetStats implements Device. Lock-free. A query in flight adds all
// its reads when it ends, those before the reset too.
func (d *FileDevice) ResetStats() { d.stats.Reset() }

// addReads adds the reads of a call's IOCount to the device's total.
func (d *FileDevice) addReads(n uint64) { d.stats.reads.Add(n) }

// Sync implements Syncer: fsync, forcing completed WriteAt calls to
// stable storage. Without it a crash can lose buffered writes — the
// snapshot commit relies on Sync to make a snapshot durable before its
// file is renamed into place.
func (d *FileDevice) Sync() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return ErrClosed
	}
	if err := d.f.Sync(); err != nil {
		return fmt.Errorf("blockio: sync: %w", err)
	}
	return nil
}

// Close implements Device: syncs, then closes the file, so a clean
// shutdown never leaves pages only in the OS write cache, and drops the
// device's reference to its mapping. It never unmaps: views already
// taken keep reading their pages (see FileDevice).
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil
	}
	d.closed.Store(true)
	d.mapped.Store(nil)
	syncErr := d.f.Sync()
	closeErr := d.f.Close()
	if syncErr != nil {
		return fmt.Errorf("blockio: sync on close: %w", syncErr)
	}
	return closeErr
}
