//go:build unix

package blockio

import (
	"fmt"
	"math"
	"runtime"
	"sync/atomic"
	"syscall"
)

// liveMappings counts the file mappings made and not yet unmapped.
var liveMappings atomic.Int64

// View implements Viewer: the page as a slice of the file's read-only
// mapping — zero copies, counted as one read with an atomic add on the
// device's counter. A query instead views through its own IOCount,
// which loads the mapping once per call and skips both the add and
// this call (see IOCount). When the page is already mapped View takes
// no lock: one atomic load of the published mapping and the bounds
// check. The view keeps its mapping alive until Release, across Close
// and an unlink of the file (see FileDevice).
func (d *FileDevice) View(id PageID) (PageView, error) {
	b, err := d.bind(id)
	if err != nil {
		return PageView{}, err
	}
	d.stats.reads.Add(1)
	return b.fileView(id), nil
}

// bind implements binder: the published mapping, remapped first if
// page id lies past it, and the pages of it that lie in the file.
func (d *FileDevice) bind(id PageID) (binding, error) {
	if err := d.check(id); err != nil {
		return binding{}, err
	}
	bs := int64(d.blockSize)
	end := (int64(id) + 1) * bs
	m := d.mapped.Load()
	if m == nil || int64(len(m.data)) < end {
		var err error
		if m, err = d.remap(end); err != nil {
			return binding{}, err
		}
	}
	n := min(d.numPages.Load(), int64(len(m.data))/bs)
	return binding{m: m, mpages: int(n), bs: d.blockSize}, nil
}

// remap publishes a mapping that reaches at least byte end of the file:
// the whole file when it is first mapped, and at least twice the
// previous size after that, so a growing file is mapped O(log n) times.
// The mapping it replaces stays mapped until its last view is gone.
func (d *FileDevice) remap(end int64) (*mapping, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed.Load() {
		return nil, ErrClosed
	}
	old := d.mapped.Load()
	if old != nil && int64(len(old.data)) >= end {
		return old, nil // another View remapped first
	}
	size := max(end, d.numPages.Load()*int64(d.blockSize))
	if old != nil {
		size = max(size, 2*int64(len(old.data)))
	}
	if size > math.MaxInt {
		return nil, fmt.Errorf("blockio: map %d bytes: larger than the address space", size)
	}
	// Close takes mu too, so the descriptor stays open for the call.
	data, err := syscall.Mmap(int(d.f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, fmt.Errorf("blockio: map %d bytes: %w", size, err)
	}
	m := &mapping{data: data}
	liveMappings.Add(1)
	runtime.AddCleanup(m, unmap, data)
	d.mapped.Store(m)
	return m, nil
}

// unmap is a mapping's cleanup: it runs once neither its device nor any
// view references the mapping.
func unmap(data []byte) {
	// Munmap fails only for a slice Mmap did not return, and a cleanup
	// has no caller to report to.
	_ = syscall.Munmap(data)
	liveMappings.Add(-1)
}
