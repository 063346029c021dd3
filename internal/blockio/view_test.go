package blockio

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// fillTestPage writes a recognizable, self-consistent pattern: the
// page id in the first byte, then a repeated version byte. A torn or
// misdirected view shows up as a mixed pattern.
func fillTestPage(buf []byte, id PageID, version byte) {
	buf[0] = byte(id)
	for i := 1; i < len(buf); i++ {
		buf[i] = version
	}
}

// checkTestPage verifies a page holds exactly one (id, version) pattern.
func checkTestPage(t *testing.T, buf []byte, id PageID) {
	t.Helper()
	if buf[0] != byte(id) {
		t.Fatalf("page %d: header byte %d", id, buf[0])
	}
	v := buf[1]
	for i := 2; i < len(buf); i++ {
		if buf[i] != v {
			t.Fatalf("page %d: torn content at %d: %d vs %d", id, i, buf[i], v)
		}
	}
}

func newTestPool(t *testing.T, pages, capacity, shards int) (*BufferPool, *MemDevice) {
	t.Helper()
	dev := NewMemDevice(128)
	buf := make([]byte, 128)
	for i := 0; i < pages; i++ {
		id, err := dev.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		fillTestPage(buf, id, 1)
		if err := dev.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return NewBufferPoolSharded(dev, capacity, shards), dev
}

// TestMemDeviceView: zero-copy views alias the live page, count as
// reads, and report the same errors as Read.
func TestMemDeviceView(t *testing.T) {
	dev := NewMemDevice(64)
	id, _ := dev.Alloc()
	data := make([]byte, 64)
	fillTestPage(data, id, 7)
	if err := dev.Write(id, data); err != nil {
		t.Fatal(err)
	}
	before := dev.Stats().Reads
	v, err := dev.View(id)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(v.Data(), data) {
		t.Fatal("view content differs from page")
	}
	if got := dev.Stats().Reads - before; got != 1 {
		t.Fatalf("View counted %d reads, want 1", got)
	}
	v.Release()
	v.Release() // idempotent
	if _, err := dev.View(99); !errors.Is(err, ErrPageBounds) {
		t.Fatalf("out-of-bounds view: %v", err)
	}
}

// TestMemDeviceViewDuringAlloc: three readers View stamped pages of a
// MemDevice while one writer Allocs and stamps new ones, and then Close
// lands under them. View takes no lock, so this is the -race test of
// the published page table: a reader sees only intact pages, a View at
// or past NumPages fails with ErrPageBounds, a View after Close fails
// with ErrClosed, and a view taken before Close still reads its bytes.
func TestMemDeviceViewDuringAlloc(t *testing.T) {
	const (
		initial   = 16
		total     = 2048
		blockSize = 256
		readers   = 3
	)
	d := NewMemDevice(blockSize)
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
		// Each reader holds its last good view across the next View, so
		// the one it holds when Close lands was taken before it.
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
				// A View at NumPages succeeds only if an Alloc published
				// page n meanwhile; Alloc counts before it publishes, and
				// Close does not reset the count.
				n := d.NumPages()
				_, err = d.View(PageID(n))
				switch {
				case err == nil && d.Stats().Allocs <= uint64(n):
					t.Errorf("View(%d) succeeded with %d pages allocated", n, n)
				case err != nil && !errors.Is(err, ErrPageBounds) && !errors.Is(err, ErrClosed):
					t.Errorf("View(%d) at NumPages: %v, want ErrPageBounds", n, err)
				}
			}
		}(r)
	}
	for i := initial; i < total; i++ {
		stamp()
		if i%64 == 0 {
			runtime.Gosched()
		}
	}
	n := d.NumPages()
	if n != total {
		t.Errorf("NumPages = %d, want %d", n, total)
	}
	for _, id := range []PageID{PageID(n), PageID(n) + 100, -1} {
		if _, err := d.View(id); !errors.Is(err, ErrPageBounds) {
			t.Errorf("View(%d) of %d pages: %v, want ErrPageBounds", id, n, err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if _, err := d.View(0); !errors.Is(err, ErrClosed) {
		t.Errorf("View after Close: %v, want ErrClosed", err)
	}
	if got := d.NumPages(); got != 0 {
		t.Errorf("NumPages after Close = %d, want 0", got)
	}
	if _, err := d.Alloc(); !errors.Is(err, ErrClosed) {
		t.Errorf("Alloc after Close: %v, want ErrClosed", err)
	}
}

// copyOnly hides a device's View, so View falls back to a pooled copy.
type copyOnly struct{ Device }

// TestViewFallbackCopies: a device with no Viewer gets a pooled-copy
// view through the package helper, with identical contents.
func TestViewFallbackCopies(t *testing.T) {
	fd, err := OpenFileDevice(t.TempDir()+"/dev.pages", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer fd.Close()
	id, _ := fd.Alloc()
	data := make([]byte, 64)
	fillTestPage(data, id, 9)
	if err := fd.Write(id, data); err != nil {
		t.Fatal(err)
	}
	v, err := View(copyOnly{fd}, id)
	if err != nil {
		t.Fatal(err)
	}
	if v.buf == nil {
		t.Fatal("view of a device without View is not a pooled copy")
	}
	if !bytes.Equal(v.Data(), data) {
		t.Fatal("fallback view content differs")
	}
	v.Release()
}

// TestViewPinBlocksEviction: a pinned frame survives arbitrary cache
// pressure — the CLOCK hand must walk around it — and its bytes stay
// exactly the page image it lent out.
func TestViewPinBlocksEviction(t *testing.T) {
	const pages = 64
	p, _ := newTestPool(t, pages, 2, 1)
	v, err := p.View(0)
	if err != nil {
		t.Fatal(err)
	}
	want := append([]byte(nil), v.Data()...)
	// Storm the single shard so every unpinned frame turns over many
	// times.
	buf := make([]byte, p.BlockSize())
	for round := 0; round < 4; round++ {
		for id := PageID(1); id < pages; id++ {
			if err := p.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			checkTestPage(t, buf, id)
		}
	}
	if !bytes.Equal(v.Data(), want) {
		t.Fatal("pinned view mutated under eviction pressure")
	}
	if got := p.PinStats(); got != 1 {
		t.Fatalf("PinStats = %d, want 1 (leak detection)", got)
	}
	v.Release()
	if got := p.PinStats(); got != 0 {
		t.Fatalf("PinStats after release = %d, want 0", got)
	}
}

// TestViewAllPinnedDegradation: when every frame of a stripe is
// pinned, View and Read keep working via their uncached fallbacks
// instead of failing or evicting a pinned frame, and Write and Alloc,
// which cache nothing, are unaffected.
func TestViewAllPinnedDegradation(t *testing.T) {
	p, dev := newTestPool(t, 8, 1, 1) // one frame total
	v0, err := p.View(0)
	if err != nil {
		t.Fatal(err)
	}
	// The only frame is pinned: a second view must degrade to an
	// unpinned copy, not error and not evict.
	v1, err := p.View(1)
	if err != nil {
		t.Fatal(err)
	}
	checkTestPage(t, v1.Data(), 1)
	if got := p.PinStats(); got != 1 {
		t.Fatalf("PinStats = %d, want 1 (fallback view must not pin)", got)
	}
	// Uncached read.
	buf := make([]byte, p.BlockSize())
	if err := p.Read(2, buf); err != nil {
		t.Fatal(err)
	}
	checkTestPage(t, buf, 2)
	// Write-through.
	fillTestPage(buf, 3, 42)
	if err := p.Write(3, buf); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, p.BlockSize())
	if err := dev.Read(3, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, buf) {
		t.Fatal("all-pinned Write did not reach the device")
	}
	// Alloc still produces a usable zero page.
	id, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Read(id, got); err != nil {
		t.Fatal(err)
	}
	for i, b := range got {
		if b != 0 {
			t.Fatalf("fresh page byte %d = %d, want 0", i, b)
		}
	}
	checkTestPage(t, v0.Data(), 0) // the pin held throughout
	v0.Release()
	v1.Release()
	if got := p.PinStats(); got != 0 {
		t.Fatalf("PinStats = %d, want 0", got)
	}
}

// TestViewPinsBalancedConcurrent is the -race property test: random
// concurrent viewers, copy-readers, and writers over a small pool.
// Every view observed must be internally consistent, and when the dust
// settles every pin must be balanced by a release.
func TestViewPinsBalancedConcurrent(t *testing.T) {
	const (
		pages   = 48
		workers = 8
		iters   = 2000
	)
	p, _ := newTestPool(t, pages, 8, 4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, p.BlockSize())
			page := make([]byte, p.BlockSize())
			var held []PageView
			for i := 0; i < iters; i++ {
				id := PageID(rng.Intn(pages))
				switch rng.Intn(4) {
				case 0: // copy read
					if err := p.Read(id, buf); err != nil {
						t.Errorf("Read(%d): %v", id, err)
						return
					}
				case 1: // view, hold a while
					v, err := p.View(id)
					if err != nil {
						t.Errorf("View(%d): %v", id, err)
						return
					}
					if v.Data()[0] != byte(id) {
						t.Errorf("view of %d shows page %d", id, v.Data()[0])
						v.Release()
						return
					}
					held = append(held, v)
					if len(held) > 4 {
						held[0].Release()
						held = held[1:]
					}
				case 2: // view, release immediately
					v, err := p.View(id)
					if err != nil {
						t.Errorf("View(%d): %v", id, err)
						return
					}
					v.Release()
				case 3:
					fillTestPage(page, id, byte(i))
					if err := p.Write(id, page); err != nil {
						t.Errorf("Write(%d): %v", id, err)
						return
					}
				}
			}
			for i := range held {
				held[i].Release()
			}
		}(int64(w) * 7919)
	}
	wg.Wait()
	if got := p.PinStats(); got != 0 {
		t.Fatalf("PinStats after concurrent suite = %d, want 0 (leaked pins)", got)
	}
	// With no pins outstanding, eviction pressure must work again on
	// every frame.
	buf := make([]byte, p.BlockSize())
	for id := PageID(0); id < pages; id++ {
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		checkTestPage(t, buf, id)
	}
}
