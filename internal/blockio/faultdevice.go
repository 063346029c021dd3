package blockio

import (
	"errors"
	"sync"
)

// ErrInjected is returned by FaultDevice once its operation budget is
// exhausted.
var ErrInjected = errors.New("blockio: injected fault")

// FaultDevice wraps a Device and fails every operation after a given
// number of successful ones — the failure-injection harness used to
// verify that every index propagates device errors instead of
// panicking or silently corrupting results.
type FaultDevice struct {
	mu        sync.Mutex
	inner     Device
	remaining int64 // operations allowed before faulting; <0 = unlimited
}

// NewFaultDevice allows ops successful operations, then fails all.
func NewFaultDevice(inner Device, ops int64) *FaultDevice {
	return &FaultDevice{inner: inner, remaining: ops}
}

// Arm resets the budget (e.g. to inject at query time after a healthy
// build).
func (d *FaultDevice) Arm(ops int64) {
	d.mu.Lock()
	d.remaining = ops
	d.mu.Unlock()
}

// Disarm disables fault injection.
func (d *FaultDevice) Disarm() { d.Arm(-1) }

func (d *FaultDevice) take() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.remaining < 0 {
		return nil
	}
	if d.remaining == 0 {
		return ErrInjected
	}
	d.remaining--
	return nil
}

// BlockSize implements Device.
func (d *FaultDevice) BlockSize() int { return d.inner.BlockSize() }

// Alloc implements Device.
func (d *FaultDevice) Alloc() (PageID, error) {
	if err := d.take(); err != nil {
		return InvalidPage, err
	}
	return d.inner.Alloc()
}

// Read implements Device.
func (d *FaultDevice) Read(id PageID, buf []byte) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.inner.Read(id, buf)
}

// View implements Viewer. It spends one operation from the budget, as
// Read does, so query-time fault sweeps exercise the view path that
// served devices take. A view charged to an IOCount spends one too
// (see IOCount.View).
func (d *FaultDevice) View(id PageID) (PageView, error) {
	if err := d.take(); err != nil {
		return PageView{}, err
	}
	return View(d.inner, id)
}

// addReads passes the reads of a call's IOCount to the inner device.
func (d *FaultDevice) addReads(n uint64) { addReads(d.inner, n) }

// Write implements Device.
func (d *FaultDevice) Write(id PageID, data []byte) error {
	if err := d.take(); err != nil {
		return err
	}
	return d.inner.Write(id, data)
}

// Sync implements Syncer. It spends one operation from the budget, so
// crash-safety sweeps also exercise checkpoints interrupted at the
// fsync barrier itself.
func (d *FaultDevice) Sync() error {
	if err := d.take(); err != nil {
		return err
	}
	return SyncDevice(d.inner)
}

// NumPages implements Device.
func (d *FaultDevice) NumPages() int { return d.inner.NumPages() }

// Stats implements Device.
func (d *FaultDevice) Stats() Stats { return d.inner.Stats() }

// ResetStats implements Device.
func (d *FaultDevice) ResetStats() { d.inner.ResetStats() }

// Close implements Device.
func (d *FaultDevice) Close() error { return d.inner.Close() }

var _ Device = (*FaultDevice)(nil)
var _ Viewer = (*FaultDevice)(nil)

// ErrCopyRead is returned by ViewOnlyDevice.Read.
var ErrCopyRead = errors.New("blockio: copy-based page read on a view-only device")

// ViewOnlyDevice is a MemDevice whose Read always fails with
// ErrCopyRead; View and every other method are the MemDevice's. Tests
// build indexes on it so a query path that copies a page instead of
// viewing it returns an error.
type ViewOnlyDevice struct{ *MemDevice }

// NewViewOnlyDevice creates a view-only in-memory device with the given
// block size (DefaultBlockSize if size <= 0).
func NewViewOnlyDevice(size int) ViewOnlyDevice { return ViewOnlyDevice{NewMemDevice(size)} }

// Read implements Device: it always fails.
func (ViewOnlyDevice) Read(PageID, []byte) error { return ErrCopyRead }
