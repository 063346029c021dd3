package blockio

import "testing"

// lockCheckDevice is a MemDevice that, inside every device call the
// pool makes, counts the pool's shard mutexes that are held. The test
// drives the pool from one goroutine, so a held mutex is one the pool
// holds around the call.
type lockCheckDevice struct {
	*MemDevice
	t     *testing.T
	pool  *BufferPool
	calls map[string]int
}

// check fails the test when more than max shard mutexes are held
// during device call op.
func (d *lockCheckDevice) check(op string, max int) {
	d.calls[op]++
	held := 0
	for i := range d.pool.shards {
		mu := &d.pool.shards[i].mu
		if !mu.TryLock() {
			held++
			continue
		}
		mu.Unlock()
	}
	if held > max {
		d.t.Errorf("device %s ran with %d shard locks held, want at most %d", op, held, max)
	}
}

func (d *lockCheckDevice) Alloc() (PageID, error) {
	d.check("Alloc", 0)
	return d.MemDevice.Alloc()
}

func (d *lockCheckDevice) Read(id PageID, buf []byte) error {
	d.check("Read", 0)
	return d.MemDevice.Read(id, buf)
}

func (d *lockCheckDevice) Write(id PageID, data []byte) error {
	d.check("Write", 1)
	return d.MemDevice.Write(id, data)
}

func (d *lockCheckDevice) Sync() error {
	d.check("Sync", 0)
	return nil
}

func (d *lockCheckDevice) ResetStats() {
	d.check("ResetStats", 0)
	d.MemDevice.ResetStats()
}

func (d *lockCheckDevice) Close() error {
	d.check("Close", 0)
	return d.MemDevice.Close()
}

// TestBufferPoolDeviceLockOrder drives every BufferPool path over a
// lockCheckDevice: the pool calls Alloc, Sync, Close, ResetStats and
// Read (its misses) with no shard lock held, and Write under at most
// one.
func TestBufferPoolDeviceLockOrder(t *testing.T) {
	const pages = 16
	dev := &lockCheckDevice{MemDevice: NewMemDevice(64), t: t, calls: map[string]int{}}
	p := NewBufferPoolSharded(dev, 4, 2)
	dev.pool = p
	buf := make([]byte, 64)
	for i := 0; i < pages; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Two passes over four times the capacity: View and Read misses
	// fill and evict; re-touching a page right after its fill hits.
	for pass := 0; pass < 2; pass++ {
		for id := PageID(0); id < pages; id++ {
			v, err := p.View(id)
			if err != nil {
				t.Fatal(err)
			}
			if v.Data()[0] != byte(id) {
				t.Fatalf("page %d: view reads %d", id, v.Data()[0])
			}
			v.Release()
			if err := p.Read(id, buf); err != nil {
				t.Fatal(err)
			}
			// Write to a resident page replaces its frame.
			if err := p.Write(id, []byte{byte(id)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if hits, misses := p.HitMiss(); hits == 0 || misses <= 4 {
		t.Fatalf("hits %d, misses %d: the walk should both hit and evict", hits, misses)
	}
	if pins := p.PinStats(); pins != 0 {
		t.Fatalf("%d pins outstanding", pins)
	}
	p.ResetStats()
	if err := p.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, op := range []string{"Alloc", "Read", "Write", "Sync", "ResetStats", "Close"} {
		if dev.calls[op] == 0 {
			t.Errorf("the walk never reached the device's %s", op)
		}
	}
}
