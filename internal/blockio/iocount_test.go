package blockio

import (
	"errors"
	"fmt"
	"path/filepath"
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

// TestIOCountBound runs one sequence of operations twice on each kind
// of device, built the same way: once viewing through a nil count,
// which charges each view to the device as it happens, and once
// through one count, which binds to the devices that bind. Each run
// must see the same bytes and the same errors at every step, and once
// the count is folded, the same device Stats; the count's Reads must be
// the reads the nil run's device counted. The sequence views pages out
// of range, and pages allocated after the count bound, which on a
// FileDevice lie past the bound mapping (and, after its remap at twice
// the size, inside the mapping but past the pages bound with it). The
// FaultDevice's budget runs out midway, so both runs must fail at the
// same view; the count binds to its inner MemDevice.
func TestIOCountBound(t *testing.T) {
	const blockSize = 128
	const built = 4
	build := func(t *testing.T, d Device) Device {
		buf := make([]byte, blockSize)
		for i := 0; i < built; i++ {
			id, err := d.Alloc()
			if err != nil {
				t.Fatal(err)
			}
			fillTestPage(buf, id, byte(id)+1)
			if err := d.Write(id, buf); err != nil {
				t.Fatal(err)
			}
		}
		return d
	}
	file := func(t *testing.T) *FileDevice {
		d, err := OpenFileDevice(filepath.Join(t.TempDir(), "bound.pages"), blockSize)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { d.Close() })
		return d
	}
	_, fileBinds := any((*FileDevice)(nil)).(binder) // on unix systems
	kinds := []struct {
		name  string
		make  func(t *testing.T) Device
		binds bool
	}{
		{"MemDevice", func(t *testing.T) Device { return build(t, NewMemDevice(blockSize)) }, true},
		{"ViewOnlyDevice", func(t *testing.T) Device { return build(t, NewViewOnlyDevice(blockSize)) }, true},
		{"FileDevice", func(t *testing.T) Device { return build(t, file(t)) }, fileBinds},
		{"FaultDevice", func(t *testing.T) Device {
			d := NewFaultDevice(NewMemDevice(blockSize), -1)
			build(t, d)
			d.Arm(14)
			return d
		}, true},
		{"BufferPool", func(t *testing.T) Device { return build(t, NewBufferPool(NewMemDevice(blockSize), 2)) }, false},
		{"foreign", func(t *testing.T) Device { return build(t, wrapped{NewMemDevice(blockSize)}) }, false},
	}
	// -1 allocates and writes a page; anything else views that id.
	steps := []PageID{0, 1, 2, 3, 1, 9, -2, 3, -1, 4, 0, -1, -1, 6, 5, 7, 2, 0, 1, 3, 6}
	run := func(t *testing.T, d Device, c *IOCount) []string {
		buf := make([]byte, blockSize)
		var out []string
		for _, id := range steps {
			if id == -1 {
				id, err := d.Alloc()
				if err == nil {
					fillTestPage(buf, id, byte(id)+1)
					err = d.Write(id, buf)
				}
				out = append(out, fmt.Sprintf("alloc %d: %v", id, err))
				continue
			}
			v, err := c.View(d, id)
			out = append(out, fmt.Sprintf("view %d: %x %v", id, v.Data(), err))
			v.Release()
		}
		return out
	}
	for _, k := range kinds {
		t.Run(k.name, func(t *testing.T) {
			perView := k.make(t)
			before := perView.Stats()
			want := run(t, perView, nil)
			wantReads := perView.Stats().Reads - before.Reads

			d := k.make(t)
			var c IOCount
			got := run(t, d, &c)
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("step %d: bound count gives %s, nil count %s", i, got[i], want[i])
				}
			}
			if c.Reads() != wantReads {
				t.Errorf("count charged %d reads; the nil count's device counted %d", c.Reads(), wantReads)
			}
			c.Fold(d)
			if got, want := d.Stats(), perView.Stats(); got != want {
				t.Errorf("after the fold the device counts %v; with a nil count %v", got, want)
			}
			if bound := c.dev != nil; bound != k.binds {
				t.Errorf("count bound: %v, want %v", bound, k.binds)
			}
		})
	}
}
