package blockio

import (
	"errors"
	"testing"
)

// wrapped is a device from outside the package's own set: it serves
// views through its own View.
type wrapped struct{ Device }

func (w wrapped) View(id PageID) (PageView, error) { return View(w.Device, id) }

// TestIOCountCharges: a view charged to an IOCount reaches the device's
// read count only when the count is folded, and exactly once; a failed
// view charges nothing; FaultDevice spends its budget per view and
// folds into its inner device; a BufferPool charges only its misses,
// which its device counts as they happen; a device outside the package
// counts its own views; and a nil count charges the device at once.
func TestIOCountCharges(t *testing.T) {
	newDev := func(pages int) *MemDevice {
		d := NewMemDevice(64)
		for i := 0; i < pages; i++ {
			if _, err := d.Alloc(); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	view := func(c *IOCount, d Device, id PageID) error {
		v, err := c.View(d, id)
		v.Release()
		return err
	}
	check := func(name string, c *IOCount, d *MemDevice, reads, device uint64) {
		t.Helper()
		if c.Reads() != reads || d.Stats().Reads != device {
			t.Fatalf("%s: count %d, device %d; want %d and %d", name, c.Reads(), d.Stats().Reads, reads, device)
		}
	}

	mem := newDev(4)
	var c IOCount
	for id := PageID(0); id < 3; id++ {
		if err := view(&c, mem, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := view(&c, mem, 9); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("view past the end: %v", err)
	}
	check("MemDevice before the fold", &c, mem, 3, 0)
	c.Fold(mem)
	check("MemDevice after the fold", &c, mem, 3, 3)
	c.Fold(mem)
	check("MemDevice folded twice", &c, mem, 3, 3)

	inner := newDev(4)
	fd := NewFaultDevice(inner, 2)
	c = IOCount{}
	for id := PageID(0); id < 2; id++ {
		if err := view(&c, fd, id); err != nil {
			t.Fatal(err)
		}
	}
	if err := view(&c, fd, 2); !errors.Is(err, ErrInjected) {
		t.Fatalf("view past the budget: %v", err)
	}
	check("FaultDevice before the fold", &c, inner, 2, 0)
	c.Fold(fd)
	check("FaultDevice after the fold", &c, inner, 2, 2)

	backing := newDev(4)
	pool := NewBufferPool(backing, 4)
	c = IOCount{}
	for _, id := range []PageID{0, 0, 1, 0} {
		if err := view(&c, pool, id); err != nil {
			t.Fatal(err)
		}
	}
	check("BufferPool", &c, backing, 2, 2)
	c.Fold(pool)
	check("BufferPool after the fold", &c, backing, 2, 2)

	under := newDev(4)
	c = IOCount{}
	if err := view(&c, wrapped{under}, 1); err != nil {
		t.Fatal(err)
	}
	check("outside device", &c, under, 1, 1)
	c.Fold(wrapped{under})
	check("outside device after the fold", &c, under, 1, 1)

	direct := newDev(4)
	if err := view(nil, direct, 1); err != nil {
		t.Fatal(err)
	}
	if r := direct.Stats().Reads; r != 1 {
		t.Fatalf("nil count: device counts %d reads, want 1", r)
	}
}
