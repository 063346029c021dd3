package blockio

import (
	"math/rand"
	"sync"
	"testing"
)

func TestShardCountRounding(t *testing.T) {
	dev := NewMemDevice(64)
	cases := []struct {
		capacity, shards, want int
	}{
		{capacity: 64, shards: 1, want: 1},
		{capacity: 64, shards: 3, want: 4}, // rounds up to power of two
		{capacity: 64, shards: 64, want: 64},
		{capacity: 4, shards: 16, want: 4}, // clamped: every shard holds >= 1 page
		{capacity: 1, shards: 8, want: 1},
		{capacity: 5, shards: 8, want: 4}, // largest power of two <= capacity
	}
	for _, tc := range cases {
		p := NewBufferPoolSharded(dev, tc.capacity, tc.shards)
		if got := p.NumShards(); got != tc.want {
			t.Errorf("NewBufferPoolSharded(cap=%d, shards=%d).NumShards() = %d, want %d",
				tc.capacity, tc.shards, got, tc.want)
		}
	}
	if got := NewBufferPool(dev, 1024).NumShards(); got < 1 || got&(got-1) != 0 {
		t.Errorf("auto shard count %d is not a power of two", got)
	}
}

// TestShardCapacityPartition: per-shard capacities sum exactly to the
// requested total, so the pool never holds more pages than configured.
func TestShardCapacityPartition(t *testing.T) {
	dev := NewMemDevice(64)
	for _, capacity := range []int{1, 2, 7, 64, 100, 1000} {
		p := NewBufferPoolSharded(dev, capacity, 8)
		total := 0
		for i := range p.shards {
			c := p.shards[i].cap
			if c < 1 {
				t.Fatalf("cap=%d: shard %d has capacity %d < 1", capacity, i, c)
			}
			total += c
		}
		if total != capacity {
			t.Errorf("cap=%d: shard capacities sum to %d", capacity, total)
		}
	}
}

// TestCapacityBoundUnderChurn: after writing far more pages than the
// pool holds, the cached frame count stays within capacity.
func TestCapacityBoundUnderChurn(t *testing.T) {
	dev := NewMemDevice(64)
	const capacity = 16
	p := NewBufferPoolSharded(dev, capacity, 4)
	for i := 0; i < 20*capacity; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if err := p.Write(id, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	frames := 0
	for i := range p.shards {
		frames += len(p.shards[i].ring)
	}
	if frames > capacity {
		t.Fatalf("pool holds %d frames, capacity %d", frames, capacity)
	}
	// Everything must still read back correctly through the pool.
	buf := make([]byte, 64)
	for i := 0; i < 20*capacity; i++ {
		if err := p.Read(PageID(i), buf); err != nil {
			t.Fatal(err)
		}
		if buf[0] != byte(i) {
			t.Fatalf("page %d content %d, want %d", i, buf[0], byte(i))
		}
	}
}

// TestParallelReadersWriters is the -race net for the striped pool:
// concurrent readers, writers, and stats calls over a shared pool —
// the Write-during-Read interleaving the lock-ordering rule exists to
// keep deadlock-free.
func TestParallelReadersWriters(t *testing.T) {
	dev := NewMemDevice(128)
	p := NewBufferPoolSharded(dev, 32, 8)
	const pages = 128
	ids := make([]PageID, pages)
	for i := range ids {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
		if err := p.Write(id, []byte{byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			buf := make([]byte, 128)
			for i := 0; i < 500; i++ {
				id := ids[rng.Intn(pages)]
				switch i % 8 {
				case 0, 1:
					if err := p.Write(id, []byte{buf[0] + 1, buf[0] + 1}); err != nil {
						t.Error(err)
						return
					}
				case 2:
					_, _ = p.HitMiss()
					_ = p.Stats()
				default:
					if err := p.Read(id, buf); err != nil {
						t.Error(err)
						return
					}
					// Writers always write a doubled byte; a torn or
					// corrupt frame would break the invariant.
					if buf[0] != buf[1] {
						t.Errorf("page %d torn: % x", id, buf[:2])
						return
					}
				}
			}
		}(int64(g + 1))
	}
	wg.Wait()
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestHitMissCountsSharded: counters stay exact across stripes.
func TestHitMissCountsSharded(t *testing.T) {
	dev := NewMemDevice(64)
	p := NewBufferPoolSharded(dev, 16, 4)
	var ids []PageID
	for i := 0; i < 8; i++ {
		id, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	buf := make([]byte, 64)
	for _, id := range ids { // warm: Alloc caches nothing
		if err := p.Read(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	p.ResetStats()
	for round := 0; round < 3; round++ {
		for _, id := range ids {
			if err := p.Read(id, buf); err != nil {
				t.Fatal(err)
			}
		}
	}
	hits, misses := p.HitMiss()
	if hits != 24 || misses != 0 {
		t.Fatalf("HitMiss = (%d, %d), want (24, 0): all pages resident after the warm read", hits, misses)
	}
}
