//go:build unix

package blockio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestFileDeviceView: a FileDevice view holds the page's bytes, counts
// one read, and outlives both Close and an unlink of the file; after
// Close no new view is served.
func TestFileDeviceView(t *testing.T) {
	const blockSize = 256
	path := filepath.Join(t.TempDir(), "view.pages")
	d, err := OpenFileDevice(path, blockSize)
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, 4)
	for i := range want {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		want[i] = make([]byte, blockSize)
		stampPage(want[i], id, 3)
		if err := d.Write(id, want[i]); err != nil {
			t.Fatal(err)
		}
	}
	before := d.Stats().Reads
	views := make([]PageView, len(want))
	for i := range views {
		if views[i], err = d.View(PageID(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := d.Stats().Reads - before; got != uint64(len(want)) {
		t.Fatalf("%d views counted %d reads", len(want), got)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	runtime.GC() // the device no longer holds the mapping; the views must
	for i, v := range views {
		if !bytes.Equal(v.Data(), want[i]) {
			t.Errorf("view of page %d held across Close and unlink differs from the page", i)
		}
		v.Release()
	}
	if _, err := d.View(0); !errors.Is(err, ErrClosed) {
		t.Errorf("View after Close: %v, want ErrClosed", err)
	}
}

// TestFileDeviceViewBounds: a view at or past NumPages fails with
// ErrPageBounds, also where the mapping reaches past the file's end.
func TestFileDeviceViewBounds(t *testing.T) {
	const blockSize = 128
	d := newStampedFileDevice(t, 3, blockSize)
	defer d.Close()
	v, err := d.View(0) // maps the file
	if err != nil {
		t.Fatal(err)
	}
	v.Release()
	if _, err := d.Alloc(); err != nil { // page 3, past the mapping
		t.Fatal(err)
	}
	if v, err = d.View(3); err != nil { // remaps at twice the size: 6 pages
		t.Fatal(err)
	}
	v.Release()
	if got := len(d.mapped.Load().data); got < 6*blockSize {
		t.Fatalf("mapping holds %d bytes after a remap of 3 pages, want at least %d", got, 6*blockSize)
	}
	for _, id := range []PageID{4, 5, 100, -1} {
		if _, err := d.View(id); !errors.Is(err, ErrPageBounds) {
			t.Errorf("View(%d) of 4 pages: %v, want ErrPageBounds", id, err)
		}
	}
}

// TestFileDeviceViewDuringGrowth: three readers View stamped pages of a
// FileDevice while one writer Allocs and stamps new ones, growing the
// file through several remaps, and then Close lands under them. Views
// of a mapped page take no lock, so this is the -race test of the
// published mapping: a reader sees only intact pages, a View after
// Close fails with ErrClosed, and a view taken before Close, from a
// mapping since replaced, still reads its bytes.
func TestFileDeviceViewDuringGrowth(t *testing.T) {
	const (
		initial   = 16
		total     = 1024
		blockSize = 256
		readers   = 3
	)
	d, err := OpenFileDevice(filepath.Join(t.TempDir(), "grow.pages"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	var stamped atomic.Int64 // pages [0, stamped) hold their stamp
	stamp := func() {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(buf, id, 0)
		if err := d.Write(id, buf); err != nil {
			t.Fatal(err)
		}
		stamped.Store(int64(id) + 1)
	}
	for i := 0; i < initial; i++ {
		stamp()
	}
	var wg sync.WaitGroup
	for r := 0; r < readers; r++ {
		heldID := PageID(r)
		held, err := d.View(heldID)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			defer held.Release()
			rng := xorshift64(uint64(r) + 1)
			for {
				id := PageID(rng.next() % uint64(stamped.Load()))
				v, err := d.View(id)
				if errors.Is(err, ErrClosed) {
					if msg := stampError(held.Data(), heldID); msg != "" {
						t.Errorf("view of page %d taken before Close %s after it", heldID, msg)
					}
					return
				}
				if err != nil {
					t.Errorf("View(%d): %v", id, err)
					return
				}
				if msg := stampError(v.Data(), id); msg != "" {
					t.Errorf("view of page %d %s", id, msg)
				}
				held.Release()
				held, heldID = v, id
			}
		}(r)
	}
	for i := initial; i < total; i++ {
		stamp()
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := d.View(0); !errors.Is(err, ErrClosed) {
		t.Errorf("View after Close: %v, want ErrClosed", err)
	}
}

// TestIOCountFileViewHoldsMapping: a view through a count bound to a
// FileDevice holds the mapping it was cut from, as the device's own
// View does, so it keeps reading its page after a view past the bound
// mapping remaps the file and after Close.
func TestIOCountFileViewHoldsMapping(t *testing.T) {
	const blockSize = 128
	d := newStampedFileDevice(t, 3, blockSize)
	var c IOCount
	v, err := c.View(d, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if first := d.mapped.Load(); v.m != first || c.m != first {
		t.Fatal("a bound view does not hold the device's mapping")
	}
	buf := make([]byte, blockSize)
	id, err := d.Alloc() // past the bound mapping
	if err != nil {
		t.Fatal(err)
	}
	stampPage(buf, id, 0)
	if err := d.Write(id, buf); err != nil {
		t.Fatal(err)
	}
	w, err := c.View(d, id)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Release()
	if w.m == v.m || w.m != d.mapped.Load() {
		t.Fatal("a view past the bound mapping was not cut from the remapped file")
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	for _, x := range []struct {
		v  PageView
		id PageID
	}{{v, 0}, {w, id}} {
		if msg := stampError(x.v.Data(), x.id); msg != "" {
			t.Errorf("bound view of page %d %s after a remap and Close", x.id, msg)
		}
	}
	if c.Reads() != 2 {
		t.Errorf("count charged %d reads, want 2", c.Reads())
	}
}
