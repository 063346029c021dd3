// The race detector instruments allocations, so the counts only hold in
// a normal build.
//
//go:build !race

package blockio

import "testing"

// TestViewAllocs pins every way a query reads a page at zero
// allocations in the steady state: View and Release on a MemDevice, on
// a mapped FileDevice, on a buffer-pool hit, on a buffer-pool miss (the fill reads into the
// buffer the evicted frame handed back), and through the pooled-copy
// fallback (GetPageBuf, Read, PutPageBuf); through a count bound to a
// MemDevice and to a FileDevice; and a buffer-pool Read hit into caller
// scratch.
func TestViewAllocs(t *testing.T) {
	const pages = 8
	pool, dev := newTestPool(t, pages, pages, 2)
	buf := make([]byte, dev.BlockSize())
	for id := PageID(0); id < pages; id++ { // make every page resident
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	// Cycling over four times the capacity, every View misses and evicts.
	missPool, _ := newTestPool(t, 4*pages, pages, 2)
	file := newStampedFileDevice(t, pages, dev.BlockSize())
	defer file.Close()
	for _, tc := range []struct {
		name string
		dev  Device
		span PageID
	}{
		{"MemDevice", dev, pages},
		{"FileDevice", file, pages},
		{"BufferPool hit", pool, pages},
		{"BufferPool miss", missPool, 4 * pages},
		{"copy fallback", copyOnly{dev}, pages},
	} {
		id := PageID(0)
		got := testing.AllocsPerRun(200, func() {
			v, err := View(tc.dev, id)
			if err != nil {
				t.Fatal(err)
			}
			if v.Data()[0] != byte(id) {
				t.Fatalf("page %d: header byte %d", id, v.Data()[0])
			}
			v.Release()
			id = (id + 1) % tc.span
		})
		if got != 0 {
			t.Errorf("%s: View/Release allocates %.1f allocs/op, want 0", tc.name, got)
		}
	}
	for _, tc := range []struct {
		name string
		dev  Device
	}{{"MemDevice", dev}, {"FileDevice", file}} {
		var c IOCount
		id := PageID(0)
		got := testing.AllocsPerRun(200, func() {
			v, err := c.View(tc.dev, id)
			if err != nil {
				t.Fatal(err)
			}
			if v.Data()[0] != byte(id) {
				t.Fatalf("page %d: header byte %d", id, v.Data()[0])
			}
			v.Release()
			id = (id + 1) % pages
		})
		if got != 0 {
			t.Errorf("%s: bound IOCount View/Release allocates %.1f allocs/op, want 0", tc.name, got)
		}
	}
	id := PageID(0)
	if got := testing.AllocsPerRun(200, func() {
		if err := pool.Read(id, buf); err != nil {
			t.Fatal(err)
		}
		id = (id + 1) % pages
	}); got != 0 {
		t.Errorf("BufferPool Read hit allocates %.1f allocs/op, want 0", got)
	}
	if hits, misses := pool.HitMiss(); misses != pages || hits == 0 {
		t.Errorf("pool hits/misses = %d/%d, want only the %d warming misses", hits, misses, pages)
	}
	if hits, _ := missPool.HitMiss(); hits != 0 {
		t.Errorf("miss pool served %d hits, want every View to miss", hits)
	}
	if pins := pool.PinStats() + missPool.PinStats(); pins != 0 {
		t.Errorf("%d pins leaked", pins)
	}
}
