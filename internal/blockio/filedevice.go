package blockio

import (
	"fmt"
	"os"
	"sync"
)

// FileDevice is a Device backed by a single file, with one page per
// BlockSize-aligned extent. It gives the benchmarks a real-disk mode;
// correctness tests use it to verify index persistence end-to-end.
type FileDevice struct {
	mu        sync.Mutex
	blockSize int
	f         *os.File
	numPages  int
	stats     counters
	closed    bool
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
	return &FileDevice{
		blockSize: blockSize,
		f:         f,
		numPages:  int(fi.Size() / int64(blockSize)),
	}, nil
}

// BlockSize implements Device.
func (d *FileDevice) BlockSize() int { return d.blockSize }

// Alloc implements Device.
func (d *FileDevice) Alloc() (PageID, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return InvalidPage, ErrClosed
	}
	d.stats.allocs.Add(1)
	id := PageID(d.numPages)
	d.numPages++
	if err := d.f.Truncate(int64(d.numPages) * int64(d.blockSize)); err != nil {
		return InvalidPage, fmt.Errorf("blockio: grow: %w", err)
	}
	return id, nil
}

func (d *FileDevice) checkLocked(id PageID) error {
	if d.closed {
		return ErrClosed
	}
	if id < 0 || int(id) >= d.numPages {
		return fmt.Errorf("%w: %d of %d", ErrPageBounds, id, d.numPages)
	}
	return nil
}

// Read implements Device.
func (d *FileDevice) Read(id PageID, buf []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(id); err != nil {
		return err
	}
	if len(buf) < d.blockSize {
		return ErrShortBuffer
	}
	d.stats.reads.Add(1)
	_, err := d.f.ReadAt(buf[:d.blockSize], int64(id)*int64(d.blockSize))
	if err != nil {
		return fmt.Errorf("blockio: read page %d: %w", id, err)
	}
	return nil
}

// Write implements Device.
func (d *FileDevice) Write(id PageID, data []byte) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := d.checkLocked(id); err != nil {
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

// NumPages implements Device.
func (d *FileDevice) NumPages() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.numPages
}

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
	if d.closed {
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
	if d.closed {
		return nil
	}
	d.closed = true
	syncErr := d.f.Sync()
	closeErr := d.f.Close()
	if syncErr != nil {
		return fmt.Errorf("blockio: sync on close: %w", syncErr)
	}
	return closeErr
}
