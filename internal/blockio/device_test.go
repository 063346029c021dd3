package blockio

import (
	"bytes"
	"math/rand"
	"path/filepath"
	"testing"
	"testing/quick"
)

// deviceHarness runs a behavioural suite against any Device. cached
// marks devices that legally absorb IOs (the exact-stats test is
// skipped for those).
func deviceHarness(t *testing.T, name string, cached bool, mk func(t *testing.T) Device) {
	t.Run(name+"/AllocReadWrite", func(t *testing.T) {
		d := mk(t)
		defer d.Close()
		id, err := d.Alloc()
		if err != nil {
			t.Fatalf("Alloc: %v", err)
		}
		if id != 0 || d.NumPages() != 1 {
			t.Fatalf("first Alloc = page %d with NumPages %d, want page 0 of 1", id, d.NumPages())
		}
		buf := make([]byte, d.BlockSize())
		if err := d.Read(id, buf); err != nil {
			t.Fatalf("Read fresh: %v", err)
		}
		for _, b := range buf {
			if b != 0 {
				t.Fatal("fresh page not zeroed")
			}
		}
		payload := []byte("hello temporal world")
		if err := d.Write(id, payload); err != nil {
			t.Fatalf("Write: %v", err)
		}
		if err := d.Read(id, buf); err != nil {
			t.Fatalf("Read: %v", err)
		}
		if !bytes.Equal(buf[:len(payload)], payload) {
			t.Fatalf("read back %q, want %q", buf[:len(payload)], payload)
		}
	})

	t.Run(name+"/ShortWriteZeroesTail", func(t *testing.T) {
		d := mk(t)
		defer d.Close()
		id, _ := d.Alloc()
		full := bytes.Repeat([]byte{0xAA}, d.BlockSize())
		if err := d.Write(id, full); err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{1, 2, 3}); err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, d.BlockSize())
		if err := d.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 1 || buf[1] != 2 || buf[2] != 3 {
			t.Fatal("prefix lost")
		}
		for i := 3; i < len(buf); i++ {
			if buf[i] != 0 {
				t.Fatalf("tail byte %d not zeroed after short write", i)
			}
		}
	})

	t.Run(name+"/Errors", func(t *testing.T) {
		d := mk(t)
		defer d.Close()
		buf := make([]byte, d.BlockSize())
		if err := d.Read(PageID(99), buf); err == nil {
			t.Error("out-of-bounds read accepted")
		}
		if err := d.Read(InvalidPage, buf); err == nil {
			t.Error("invalid page read accepted")
		}
		id, _ := d.Alloc()
		if err := d.Read(id, make([]byte, 1)); err == nil {
			t.Error("short buffer accepted")
		}
		if err := d.Write(id, make([]byte, d.BlockSize()+1)); err == nil {
			t.Error("oversize write accepted")
		}
	})

	t.Run(name+"/Stats", func(t *testing.T) {
		if cached {
			t.Skip("cached device absorbs IOs; stats covered by pool-specific tests")
		}
		d := mk(t)
		defer d.Close()
		id, _ := d.Alloc()
		buf := make([]byte, d.BlockSize())
		_ = d.Write(id, []byte{1})
		_ = d.Read(id, buf)
		_ = d.Read(id, buf)
		s := d.Stats()
		if s.Allocs != 1 || s.Writes != 1 || s.Reads != 2 {
			t.Errorf("stats %v, want allocs=1 writes=1 reads=2", s)
		}
		if s.Total() != 3 {
			t.Errorf("Total = %d, want 3", s.Total())
		}
		d.ResetStats()
		if d.Stats() != (Stats{}) {
			t.Error("ResetStats did not zero")
		}
	})

	t.Run(name+"/Closed", func(t *testing.T) {
		d := mk(t)
		if err := d.Close(); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Alloc(); err == nil {
			t.Error("alloc on closed device accepted")
		}
	})
}

func TestMemDevice(t *testing.T) {
	deviceHarness(t, "mem", false, func(t *testing.T) Device { return NewMemDevice(256) })
}

func TestFileDevice(t *testing.T) {
	deviceHarness(t, "file", false, func(t *testing.T) Device {
		d, err := OpenFileDevice(filepath.Join(t.TempDir(), "dev.bin"), 256)
		if err != nil {
			t.Fatalf("OpenFileDevice: %v", err)
		}
		return d
	})
}

func TestBufferPoolAsDevice(t *testing.T) {
	deviceHarness(t, "pool", true, func(t *testing.T) Device {
		return NewBufferPool(NewMemDevice(256), 4)
	})
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, Allocs: 3}
	b := Stats{Reads: 4, Writes: 2, Allocs: 1}
	got := a.Sub(b)
	want := Stats{Reads: 6, Writes: 3, Allocs: 2}
	if got != want {
		t.Errorf("Sub = %v, want %v", got, want)
	}
}

func TestBufferPoolHitsAvoidDeviceReads(t *testing.T) {
	dev := NewMemDevice(128)
	pool := NewBufferPool(dev, 8)
	id, _ := pool.Alloc()
	if err := pool.Write(id, []byte{42}); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	if err := pool.Read(id, buf); err != nil { // warm: Write caches nothing
		t.Fatal(err)
	}
	dev.ResetStats()
	for i := 0; i < 10; i++ {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if buf[0] != 42 {
		t.Fatal("wrong data")
	}
	if r := dev.Stats().Reads; r != 0 {
		t.Errorf("device reads = %d, want 0 (all cache hits)", r)
	}
	hits, misses := pool.HitMiss()
	if hits < 10 {
		t.Errorf("hits = %d, want >= 10", hits)
	}
	_ = misses
}

// TestBufferPoolEvictionWritesBack: pages that have been resident and
// then evicted from a small pool read back with the content written
// through it.
func TestBufferPoolEvictionWritesBack(t *testing.T) {
	dev := NewMemDevice(128)
	pool := NewBufferPool(dev, 2)
	var ids []PageID
	buf := make([]byte, 128)
	for i := 0; i < 5; i++ {
		id, _ := pool.Alloc()
		if err := pool.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		if err := pool.Read(id, buf); err != nil { // make it resident
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Pages 0..2 must have been evicted; read them through the pool
	// and verify content survived.
	for i, id := range ids {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Errorf("page %d content = %d, want %d", id, buf[0], i+1)
		}
	}
}

// TestBufferPoolFlush: after Write and Sync a page's data is on the
// device, visible without going through the pool.
func TestBufferPoolFlush(t *testing.T) {
	dev := NewMemDevice(128)
	pool := NewBufferPool(dev, 8)
	id, _ := pool.Alloc()
	if err := pool.Write(id, []byte{9}); err != nil {
		t.Fatal(err)
	}
	if err := pool.Sync(); err != nil {
		t.Fatal(err)
	}
	// Read directly from the device, bypassing the pool.
	buf := make([]byte, 128)
	if err := dev.Read(id, buf); err != nil {
		t.Fatal(err)
	}
	if buf[0] != 9 {
		t.Error("written page did not reach the device")
	}
}

// TestBufferPoolWritesThrough: a Write has reached the device when it
// returns, whether or not its page is resident, and a resident page's
// frame shows the new data.
func TestBufferPoolWritesThrough(t *testing.T) {
	dev := NewMemDevice(128)
	pool := NewBufferPool(dev, 2)
	buf := make([]byte, 128)
	for i := 0; i < 5; i++ {
		id, _ := pool.Alloc()
		if err := pool.Write(id, []byte{byte(i + 1)}); err != nil {
			t.Fatal(err)
		}
		// Read directly from the device, bypassing the pool.
		if err := dev.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i+1) {
			t.Fatalf("page %d on the device = %d after Write, want %d", id, buf[0], i+1)
		}
	}
	if err := pool.Read(0, buf); err != nil { // page 0 is now resident
		t.Fatal(err)
	}
	if err := pool.Write(0, []byte{42}); err != nil {
		t.Fatal(err)
	}
	for name, d := range map[string]Device{"device": dev, "pool": pool} {
		if err := d.Read(0, buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != 42 {
			t.Errorf("resident page rewritten: %s reads %d, want 42", name, buf[0])
		}
	}
}

// Property: a random sequence of writes through a small pool reads back
// the same values as a plain device given the same sequence.
func TestBufferPoolEquivalenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		plain := NewMemDevice(64)
		pooled := NewBufferPool(NewMemDevice(64), 3)
		var ids []PageID
		for i := 0; i < 8; i++ {
			a, _ := plain.Alloc()
			b, _ := pooled.Alloc()
			if a != b {
				return false
			}
			ids = append(ids, a)
		}
		for op := 0; op < 200; op++ {
			id := ids[rng.Intn(len(ids))]
			data := make([]byte, 1+rng.Intn(63))
			rng.Read(data)
			if plain.Write(id, data) != nil || pooled.Write(id, data) != nil {
				return false
			}
			// Random verification read.
			vid := ids[rng.Intn(len(ids))]
			b1 := make([]byte, 64)
			b2 := make([]byte, 64)
			if plain.Read(vid, b1) != nil || pooled.Read(vid, b2) != nil {
				return false
			}
			if !bytes.Equal(b1, b2) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestFileDevicePersistsAcrossLargeVolume(t *testing.T) {
	d, err := OpenFileDevice(filepath.Join(t.TempDir(), "vol.bin"), 512)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	const n = 100
	for i := 0; i < n; i++ {
		id, err := d.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Write(id, []byte{byte(i), byte(i >> 8)}); err != nil {
			t.Fatal(err)
		}
	}
	buf := make([]byte, 512)
	for i := 0; i < n; i++ {
		if err := d.Read(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) || buf[1] != byte(i>>8) {
			t.Fatalf("page %d corrupted", i)
		}
	}
	if d.NumPages() != n {
		t.Errorf("NumPages = %d, want %d", d.NumPages(), n)
	}
}
