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
// Alloc, Write, Sync and Close. Alloc publishes a page only once the
// file has grown to hold it, so a Read that passes the bounds check
// always reads inside the file. A Read racing Close gets either the
// page or an error, never a panic (os.File defers the close until
// in-flight calls return). A Read racing a Write of the same page may
// see part of each; pages are written before they are read, and
// BufferPool repeats any fill that a Write overlapped.
type FileDevice struct {
	mu        sync.Mutex
	blockSize int
	f         *os.File
	numPages  atomic.Int64
	stats     counters
	closed    atomic.Bool
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

// Stats implements Device. Lock-free.
func (d *FileDevice) Stats() Stats { return d.stats.Snapshot() }

// ResetStats implements Device. Lock-free.
func (d *FileDevice) ResetStats() { d.stats.Reset() }

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
// shutdown never leaves pages only in the OS write cache.
func (d *FileDevice) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil
	}
	d.closed.Store(true)
	syncErr := d.f.Sync()
	closeErr := d.f.Close()
	if syncErr != nil {
		return fmt.Errorf("blockio: sync on close: %w", syncErr)
	}
	return closeErr
}
