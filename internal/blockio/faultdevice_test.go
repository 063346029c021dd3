package blockio

import (
	"bytes"
	"errors"
	"testing"
)

// writePage allocates a page on d holding a pattern derived from seed.
func writePage(t *testing.T, d Device, seed byte) (PageID, []byte) {
	t.Helper()
	id, err := d.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	page := bytes.Repeat([]byte{seed, seed + 1, seed + 2}, d.BlockSize()/3)
	if err := d.Write(id, page); err != nil {
		t.Fatal(err)
	}
	return id, page
}

// TestFaultDeviceView checks that View spends the budget as Read does:
// within budget it lends the inner page's bytes, at budget 0 it fails
// with ErrInjected.
func TestFaultDeviceView(t *testing.T) {
	fd := NewFaultDevice(NewMemDevice(64), -1)
	id, page := writePage(t, fd, 7)

	fd.Arm(1)
	v, err := fd.View(id)
	if err != nil {
		t.Fatalf("View within budget: %v", err)
	}
	if !bytes.Equal(v.Data()[:len(page)], page) {
		t.Fatal("View within budget returned other bytes than the inner page")
	}
	v.Release()
	if _, err := fd.View(id); !errors.Is(err, ErrInjected) {
		t.Fatalf("View at budget 0: err = %v, want ErrInjected", err)
	}
}

// TestViewOnlyDevice checks that a view-only device serves views of
// what was written and fails every Read with ErrCopyRead.
func TestViewOnlyDevice(t *testing.T) {
	d := NewViewOnlyDevice(64)
	id, page := writePage(t, d, 3)
	v, err := View(d, id)
	if err != nil {
		t.Fatalf("View: %v", err)
	}
	if !bytes.Equal(v.Data()[:len(page)], page) {
		t.Fatal("View returned other bytes than were written")
	}
	v.Release()
	if err := d.Read(id, make([]byte, 64)); !errors.Is(err, ErrCopyRead) {
		t.Fatalf("Read: err = %v, want ErrCopyRead", err)
	}
}
