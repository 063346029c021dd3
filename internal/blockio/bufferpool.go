package blockio

import (
	"runtime"
	"sync"
)

// BufferPool wraps a Device with a write-through, lock-striped CLOCK
// read cache. Hits are served from memory and do not count as device
// IOs, matching the OS-cache effect the paper mentions in §5 ("which
// can be attributed to the caching effect by the OS"). Alloc and Write
// go straight to the device, so no page ever lives only in the pool;
// a Write also refreshes the page's frame when it is resident.
//
// The cache is sharded: pages are striped across a power-of-two number
// of independent shards by page ID, each with its own mutex, so
// concurrent readers on different pages never serialize on one global
// lock (the pre-sharding pool was the read path's dominant contention
// point under RunParallel load). Within a shard, eviction is CLOCK
// (second chance): a hit sets a reference bit and grabs the frame's
// data slice — no LRU list splice — and the page copy happens after
// the lock is released, so the critical section is a map lookup and
// two stores. Capacity is divided across shards; the pool holds at
// most `capacity` pages in total, and CLOCK approximates global LRU
// because the stripe assignment is uniform.
//
// Lock ordering. The pool follows one rule, and callers implementing
// Devices must respect its corollary:
//
//   - Data-path device calls (Read, Write) MAY be made while holding
//     exactly one shard lock (miss fills and Write do this). Shard
//     locks are therefore above the device's internal locks.
//   - Allocation-path device calls (Alloc, Sync, Close) are ALWAYS
//     made with no shard lock held.
//   - No operation ever holds two shard locks at once: the whole-pool
//     walks (PinStats, HitMiss, ResetStats) visit shards one at a time,
//     releasing each before locking the next.
//   - A Device implementation must never call back into the pool that
//     wraps it (its locks sit strictly below every shard lock).
//
// Zero-copy reads: View lends the resident frame out directly and
// pins it (a per-frame refcount, bumped and dropped under the shard
// lock). CLOCK treats pinned frames as unevictable, so the lent bytes
// stay valid until Release; if a stripe is ever saturated with pins,
// fills degrade to uncached service instead of failing.
//
// The pool keeps hit/miss counters so ablation benchmarks can report
// both logical (uncached) and physical (cached) IO. The counters are
// striped with the shards (plain fields bumped under the already-held
// shard lock), so the hit path never touches a cache line shared with
// other shards; HitMiss sums them on demand.
type BufferPool struct {
	dev    Device
	shards []poolShard
	mask   uint64
}

// poolShard is one stripe of the cache: an independent CLOCK ring under
// its own mutex. The trailing pad keeps hot shard headers on separate
// cache lines so neighboring shards do not false-share.
type poolShard struct {
	mu     sync.Mutex
	slots  map[PageID]int // page -> ring index
	ring   []clockFrame   // len == shard capacity once warm
	cap    int
	hand   int
	hits   uint64 // guarded by mu (bumped while it is already held)
	misses uint64 // guarded by mu
	_      [64]byte
}

// clockFrame is one cached page. Its data slice is immutable once set:
// Write replaces the slice wholesale with a fresh copy rather than
// mutating bytes in place. That invariant is what lets Read copy a hit
// out — and View lend the slice out — AFTER releasing the shard lock: the
// slice grabbed under the lock can be superseded but never scribbled
// on. ref is the CLOCK second-chance bit; pins counts outstanding
// PageViews of the frame (a pinned slot is never reclaimed or reused,
// so a view's (shard, slot) address stays valid until Release). Every
// field access happens under the shard lock.
type clockFrame struct {
	id   PageID
	data []byte
	ref  bool
	pins int
}

// NewBufferPool creates a pool holding up to capacity pages of dev,
// striped across a shard count derived from GOMAXPROCS (capped so every
// shard holds at least one page). capacity must be >= 1.
func NewBufferPool(dev Device, capacity int) *BufferPool {
	return NewBufferPoolSharded(dev, capacity, 0)
}

// NewBufferPoolSharded is NewBufferPool with an explicit shard count:
// shards is rounded up to a power of two and clamped to [1, capacity].
// shards <= 0 selects the automatic count. One shard approximates the
// classic global-lock pool (the benchmark baseline keeps the true seed
// implementation for comparison).
func NewBufferPoolSharded(dev Device, capacity, shards int) *BufferPool {
	if capacity < 1 {
		capacity = 1
	}
	if shards <= 0 {
		shards = defaultShards()
	}
	shards = ceilPow2(shards)
	for shards > capacity {
		shards >>= 1
	}
	if shards < 1 {
		shards = 1
	}
	p := &BufferPool{
		dev:    dev,
		shards: make([]poolShard, shards),
		mask:   uint64(shards - 1),
	}
	// Distribute capacity across shards, spreading the remainder so the
	// totals sum exactly to capacity.
	base, rem := capacity/shards, capacity%shards
	for i := range p.shards {
		sh := &p.shards[i]
		sh.cap = base
		if i < rem {
			sh.cap++
		}
		sh.slots = make(map[PageID]int, sh.cap)
		sh.ring = make([]clockFrame, 0, sh.cap)
	}
	return p
}

// defaultShards picks the automatic stripe count: the next power of two
// at or above GOMAXPROCS, capped at 64 (beyond that, per-shard capacity
// fragmentation costs more than the contention it saves).
func defaultShards() int {
	n := ceilPow2(runtime.GOMAXPROCS(0))
	if n > 64 {
		n = 64
	}
	return n
}

// ceilPow2 rounds n up to the next power of two (minimum 1).
func ceilPow2(n int) int {
	p := 1
	for p < n {
		p <<= 1
	}
	return p
}

// NumShards returns the stripe count (a power of two).
func (p *BufferPool) NumShards() int { return len(p.shards) }

// Capacity returns the total page capacity across all shards — the
// value NewBufferPool was constructed with (so a checkpoint can record
// the cache configuration and a restore can recreate it).
func (p *BufferPool) Capacity() int {
	total := 0
	for i := range p.shards {
		total += p.shards[i].cap
	}
	return total
}

// shardFor stripes a page onto its shard. Page IDs are allocated
// sequentially, so masking the low bits spreads adjacent pages across
// different locks.
func (p *BufferPool) shardFor(id PageID) *poolShard {
	return &p.shards[uint64(id)&p.mask]
}

// BlockSize implements Device.
func (p *BufferPool) BlockSize() int { return p.dev.BlockSize() }

// Alloc implements Device: it allocates on the device and caches
// nothing.
func (p *BufferPool) Alloc() (PageID, error) { return p.dev.Alloc() }

// Read implements Device.
func (p *BufferPool) Read(id PageID, buf []byte) error {
	if len(buf) < p.dev.BlockSize() {
		return ErrShortBuffer
	}
	sh := p.shardFor(id)
	sh.mu.Lock()
	if slot, ok := sh.slots[id]; ok {
		fr := &sh.ring[slot]
		fr.ref = true
		sh.hits++
		data := fr.data
		sh.mu.Unlock()
		// Copy outside the lock: frame data is immutable once installed
		// (see clockFrame), so the critical section is just the map
		// lookup, the reference bit, and the counter.
		copy(buf, data)
		return nil
	}
	defer sh.mu.Unlock()
	sh.misses++
	data, _, err := p.fillLocked(sh, id)
	if err != nil {
		return err
	}
	// One pass: the frame was filled straight from the device and the
	// caller is served from the installed frame itself — no
	// intermediate scratch buffer between device and cache.
	copy(buf, data)
	return nil
}

// View implements Viewer. A hit lends out the resident frame and pins
// it (CLOCK skips pinned frames, so the bytes stay valid until
// Release); a miss fills a frame once and lends that — the zero-copy
// analogue of Read's miss. If every frame in the stripe is pinned the
// view degrades to an unpinned private copy, so View never fails just
// because the cache is saturated with pins.
func (p *BufferPool) View(id PageID) (PageView, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	if slot, ok := sh.slots[id]; ok {
		fr := &sh.ring[slot]
		fr.ref = true
		fr.pins++
		sh.hits++
		data := fr.data
		sh.mu.Unlock()
		return PageView{data: data, sh: sh, slot: slot}, nil
	}
	sh.misses++
	data, slot, err := p.fillLocked(sh, id)
	if err != nil {
		sh.mu.Unlock()
		return PageView{}, err
	}
	if slot < 0 {
		// Uncached fill (all frames pinned): data is a private slice no
		// frame references, so the view needs no pin and no release
		// bookkeeping beyond GC.
		sh.mu.Unlock()
		return PageView{data: data}, nil
	}
	sh.ring[slot].pins++
	sh.mu.Unlock()
	return PageView{data: data, sh: sh, slot: slot}, nil
}

// fillLocked reads page id, which is not resident, from the device into
// a fresh frame-sized slice and installs it, returning the installed
// data and slot. When every frame is pinned the fill still succeeds but
// nothing is cached: the data is returned with slot == -1. The caller
// holds sh.mu; dev.Read runs under it (data-path order), so misses on
// other shards proceed in parallel.
func (p *BufferPool) fillLocked(sh *poolShard, id PageID) ([]byte, int, error) {
	data := make([]byte, p.dev.BlockSize())
	if err := p.dev.Read(id, data); err != nil {
		return nil, -1, err
	}
	slot := p.freeSlotLocked(sh)
	if slot < 0 {
		return data, -1, nil
	}
	sh.ring[slot] = clockFrame{id: id, data: data, ref: true}
	sh.slots[id] = slot
	return data, slot, nil
}

// PinStats returns the number of outstanding frame pins across all
// shards. Zero means every PageView handed out by View has been
// released — test suites assert this to detect leaked pins.
func (p *BufferPool) PinStats() int {
	total := 0
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		for j := range sh.ring {
			total += sh.ring[j].pins
		}
		sh.mu.Unlock()
	}
	return total
}

// Write implements Device: the data goes to the device under the
// page's shard lock (data-path order), and a resident frame is replaced
// with a fresh copy, so a concurrent hit sees either the old page or
// the new one, never a mix.
func (p *BufferPool) Write(id PageID, data []byte) error {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err := p.dev.Write(id, data); err != nil {
		return err
	}
	if slot, ok := sh.slots[id]; ok {
		page := make([]byte, p.dev.BlockSize())
		copy(page, data)
		sh.ring[slot].data = page
	}
	return nil
}

// freeSlotLocked returns a ring slot to install into: a fresh slot
// while the ring is cold, else the first frame the CLOCK hand finds
// with a clear reference bit (second chance: set bits are cleared and
// skipped). Pinned frames — outstanding PageViews — are never
// reclaimed: a view's (shard, slot) address must stay valid until
// Release. The sweep is bounded at two full revolutions (the first
// clears every unpinned ref bit, the second must then find a victim);
// if none is found, every frame is pinned and -1 is returned for the
// caller to degrade gracefully.
func (p *BufferPool) freeSlotLocked(sh *poolShard) int {
	if len(sh.ring) < sh.cap {
		sh.ring = append(sh.ring, clockFrame{})
		return len(sh.ring) - 1
	}
	for spins := 2 * len(sh.ring); spins > 0; spins-- {
		fr := &sh.ring[sh.hand]
		slot := sh.hand
		sh.hand++
		if sh.hand == len(sh.ring) {
			sh.hand = 0
		}
		if fr.pins > 0 {
			continue
		}
		if fr.ref {
			fr.ref = false
			continue
		}
		delete(sh.slots, fr.id)
		fr.data = nil
		return slot
	}
	return -1
}

// Sync implements Syncer: every Write has already reached the device,
// so Sync forces the device's writes to stable storage.
func (p *BufferPool) Sync() error { return SyncDevice(p.dev) }

// NumPages implements Device.
func (p *BufferPool) NumPages() int { return p.dev.NumPages() }

// Stats implements Device: physical IO as seen by the backing device.
func (p *BufferPool) Stats() Stats { return p.dev.Stats() }

// ResetStats implements Device; also zeroes hit/miss counters.
func (p *BufferPool) ResetStats() {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		sh.hits, sh.misses = 0, 0
		sh.mu.Unlock()
	}
	p.dev.ResetStats()
}

// HitMiss returns the cache hit and miss counts since the last
// ResetStats, summed over the shards (each shard locked briefly, one at
// a time — a cold-path cost paid so the hit path itself never touches a
// shared counter line).
func (p *BufferPool) HitMiss() (hits, misses uint64) {
	for i := range p.shards {
		sh := &p.shards[i]
		sh.mu.Lock()
		hits += sh.hits
		misses += sh.misses
		sh.mu.Unlock()
	}
	return hits, misses
}

// Close closes the backing device (no shard lock is held across
// dev.Close, per the allocation-path rule).
func (p *BufferPool) Close() error { return p.dev.Close() }

var _ Device = (*BufferPool)(nil)
var _ Device = (*MemDevice)(nil)
var _ Device = (*FileDevice)(nil)
var _ Viewer = (*BufferPool)(nil)
var _ Viewer = (*MemDevice)(nil)
