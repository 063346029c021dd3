package blockio

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math/rand"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// Tests for the pool's miss path, which reads the device with no lock
// held, installs into a recycled buffer, and must not let a recycled
// buffer reach a reader or a stale fill reach the cache.

// stampPage fills buf with page id's version-th image: id and version
// in the first 16 bytes, a pattern derived from both, and a CRC-32 of
// everything before it in the last 4 bytes.
func stampPage(buf []byte, id PageID, version uint64) {
	binary.LittleEndian.PutUint64(buf, uint64(id))
	binary.LittleEndian.PutUint64(buf[8:], version)
	x := xorshift64(uint64(id)*0x9e3779b97f4a7c15 ^ version | 1)
	for i := 16; i < len(buf)-4; i++ {
		buf[i] = byte(x.next())
	}
	end := len(buf) - 4
	binary.LittleEndian.PutUint32(buf[end:], crc32.ChecksumIEEE(buf[:end]))
}

// stampError reports why buf is not an intact image of page id, or
// returns "" when it is one (of any version).
func stampError(buf []byte, id PageID) string {
	if got := PageID(binary.LittleEndian.Uint64(buf)); got != id {
		return "holds another page's bytes"
	}
	end := len(buf) - 4
	if crc32.ChecksumIEEE(buf[:end]) != binary.LittleEndian.Uint32(buf[end:]) {
		return "fails its checksum"
	}
	return ""
}

// newStampedFileDevice creates a FileDevice of n stamped pages
// (version 0).
func newStampedFileDevice(t testing.TB, n, blockSize int) *FileDevice {
	t.Helper()
	d, err := OpenFileDevice(filepath.Join(t.TempDir(), "stamped.pages"), blockSize)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, blockSize)
	for i := 0; i < n; i++ {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		stampPage(buf, id, 0)
		if err := d.Write(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestPoolStressFileDevice: four goroutines View and Read random pages
// of a FileDevice through a pool holding an eighth of them while a
// fifth rewrites pages with new versions. Every view must hold one
// intact page image, and keep holding it, until it is released; every
// Read must copy one. A frame buffer recycled while a reader still
// uses it (a replaced buffer returned to the pool, or a Read copying
// after it unpins) shows up as another page's bytes or a bad checksum.
func TestPoolStressFileDevice(t *testing.T) {
	const (
		pages     = 128
		blockSize = 1024
		readers   = 4
	)
	ops := 3000
	if testing.Short() {
		ops = 500
	}
	dev := newStampedFileDevice(t, pages, blockSize)
	p := NewBufferPoolSharded(dev, pages/8, 2)
	var failed atomic.Bool
	fail := func(format string, args ...any) {
		failed.Store(true)
		t.Errorf(format, args...)
	}
	var stop atomic.Bool
	writerDone := make(chan struct{})
	go func() {
		defer close(writerDone)
		rng := rand.New(rand.NewSource(99))
		buf := make([]byte, blockSize)
		for v := uint64(1); !stop.Load(); v++ {
			id := PageID(rng.Intn(pages))
			stampPage(buf, id, v)
			if err := p.Write(id, buf); err != nil {
				fail("Write %d: %v", id, err)
				return
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, blockSize)
			for i := 0; i < ops && !failed.Load(); i++ {
				id := PageID(rng.Intn(pages))
				if i%2 == 0 {
					if err := p.Read(id, buf); err != nil {
						fail("Read %d: %v", id, err)
						return
					}
					if msg := stampError(buf, id); msg != "" {
						fail("Read of page %d %s", id, msg)
					}
					continue
				}
				v, err := p.View(id)
				if err != nil {
					fail("View %d: %v", id, err)
					return
				}
				first := binary.LittleEndian.Uint64(v.Data()[8:])
				if msg := stampError(v.Data(), id); msg != "" {
					fail("view of page %d %s", id, msg)
				}
				runtime.Gosched() // let other goroutines evict and refill
				if msg := stampError(v.Data(), id); msg != "" {
					fail("held view of page %d %s", id, msg)
				} else if again := binary.LittleEndian.Uint64(v.Data()[8:]); again != first {
					fail("held view of page %d changed from version %d to %d", id, first, again)
				}
				v.Release()
			}
		}(int64(g + 1))
	}
	wg.Wait()
	stop.Store(true)
	<-writerDone
	if pins := p.PinStats(); pins != 0 {
		t.Errorf("%d pins outstanding after every view was released", pins)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// gatedDevice holds its first Read of a page after reading the bytes,
// until gate is closed, and reports the hold on held.
type gatedDevice struct {
	Device
	once sync.Once
	held chan struct{}
	gate chan struct{}
}

func (d *gatedDevice) Read(id PageID, buf []byte) error {
	err := d.Device.Read(id, buf)
	d.once.Do(func() {
		close(d.held)
		<-d.gate
	})
	return err
}

// TestWriteDuringFill: a miss whose device read returned the page's
// old bytes, with a Write of the page completing before the miss
// installs them, must neither serve nor cache them. The miss and the
// next View must both see the written bytes.
func TestWriteDuringFill(t *testing.T) {
	const blockSize = 256
	inner := newStampedFileDevice(t, 4, blockSize)
	dev := &gatedDevice{Device: inner, held: make(chan struct{}), gate: make(chan struct{})}
	p := NewBufferPoolSharded(dev, 4, 1)
	const id = PageID(2)

	type result struct {
		v   PageView
		err error
	}
	filled := make(chan result)
	go func() {
		v, err := p.View(id)
		filled <- result{v, err}
	}()
	<-dev.held // the miss has read version 0 and is not yet installed
	page := make([]byte, blockSize)
	stampPage(page, id, 1)
	if err := p.Write(id, page); err != nil {
		t.Fatal(err)
	}
	close(dev.gate)
	r := <-filled
	if r.err != nil {
		t.Fatal(r.err)
	}
	if got := binary.LittleEndian.Uint64(r.v.Data()[8:]); got != 1 {
		t.Errorf("the View whose fill the Write overlapped sees version %d, want 1", got)
	}
	r.v.Release()

	v, err := p.View(id)
	if err != nil {
		t.Fatal(err)
	}
	defer v.Release()
	if got := binary.LittleEndian.Uint64(v.Data()[8:]); got != 1 {
		t.Fatalf("View after the Write sees version %d, want 1: the overlapping fill cached stale bytes", got)
	}
}

// TestFileDeviceReadRacesClose: Read takes no lock, so it can run
// while Close closes the file. Each such Read returns the page or an
// error, never panics, and once Close has returned every Read fails
// with ErrClosed.
func TestFileDeviceReadRacesClose(t *testing.T) {
	const (
		pages     = 8
		blockSize = 256
	)
	for round := 0; round < 20; round++ {
		d := newStampedFileDevice(t, pages, blockSize)
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				buf := make([]byte, blockSize)
				<-start
				for i := 0; i < 200; i++ {
					id := PageID((g + i) % pages)
					err := d.Read(id, buf)
					if err == nil {
						if msg := stampError(buf, id); msg != "" {
							t.Errorf("Read of page %d %s", id, msg)
						}
						continue
					}
					if !errors.Is(err, ErrClosed) {
						t.Errorf("Read racing Close: %v", err)
					}
					return
				}
			}(g)
		}
		close(start)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		if err := d.Read(0, make([]byte, blockSize)); !errors.Is(err, ErrClosed) {
			t.Fatalf("Read after Close = %v, want ErrClosed", err)
		}
	}
}
