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
// lock. Within a shard, eviction is CLOCK (second chance): a hit sets a
// reference bit — no LRU list splice — so the critical section is a map
// lookup and a few stores. Capacity is divided across shards; the pool
// holds at most `capacity` pages in total, and CLOCK approximates
// global LRU because the stripe assignment is uniform.
//
// Misses read the device with no lock held: the miss is counted, the
// shard lock is dropped, the page is read into a pooled buffer
// (GetPageBuf), and the lock is re-taken to install it. A reader that
// finds the page installed meanwhile shares that frame and returns its
// buffer; a fill that overlapped a Write to the same shard (the shard's
// write counter moved) reads again, since its bytes may predate the
// Write or mix both versions. So a miss never stalls hits, or other
// misses, of its shard behind a disk read.
//
// Lock ordering. The pool follows one rule, and callers implementing
// Devices must respect its corollary:
//
//   - Read-path device calls (Read, from View and Read misses) run with
//     no shard lock held.
//   - Write runs its device call under exactly one shard lock, so a
//     fill whose read it overlapped sees the shard's write counter move
//     when it re-takes the lock. Shard locks are therefore above the
//     device's internal locks.
//   - Allocation-path device calls (Alloc, Sync, Close) are ALWAYS
//     made with no shard lock held.
//   - No operation ever holds two shard locks at once: the whole-pool
//     walks (PinStats, HitMiss, ResetStats) visit shards one at a time,
//     releasing each before locking the next.
//   - A Device implementation must never call back into the pool that
//     wraps it (its locks sit strictly below every shard lock).
//
// TestBufferPoolDeviceLockOrder checks the rule from inside the device
// on every pool path.
//
// Zero-copy reads: View lends the resident frame out directly and
// pins it (a per-frame refcount, bumped and dropped under the shard
// lock). CLOCK treats pinned frames as unevictable, so the lent bytes
// stay valid until Release; if a stripe is ever saturated with pins,
// fills degrade to uncached service instead of failing.
//
// Buffer recycling. Every frame owns the pooled buffer it was filled
// from, and eviction hands the victim's buffer back with PutPageBuf, so
// a miss in the steady state allocates nothing. This is safe because a
// frame's bytes are only ever read with the frame pinned or the shard
// lock held (View pins; Read copies a hit under the lock and a miss
// while pinned), and CLOCK evicts only unpinned frames. A buffer that
// Write replaced is never recycled: a pinned view may still hold it.
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
	writes uint64 // guarded by mu; bumped by every Write to the shard
	_      [64]byte
}

// clockFrame is one cached page. buf is the pooled buffer the frame
// owns and data is *buf; Write replaces both wholesale with a fresh
// copy rather than mutating bytes in place, so bytes lent to a view are
// never scribbled on. ref is the CLOCK second-chance bit; pins counts
// outstanding PageViews of the frame (a pinned slot is never reclaimed
// or reused, so a view's (shard, slot) address stays valid until
// Release). Every field access happens under the shard lock.
type clockFrame struct {
	id   PageID
	buf  *[]byte
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
// shards <= 0 selects the automatic count. One shard gives a pool
// with a single global lock.
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

// Read implements Device. A hit copies the page under the shard lock;
// a miss fills as View does and copies while the frame is pinned. Both
// keep the copy clear of buffer recycling (see BufferPool).
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
		copy(buf, fr.data)
		sh.mu.Unlock()
		return nil
	}
	sh.misses++
	writes := sh.writes
	sh.mu.Unlock()
	v, err := p.fill(sh, id, writes)
	if err != nil {
		return err
	}
	copy(buf, v.data)
	v.Release()
	return nil
}

// View implements Viewer. A hit lends out the resident frame and pins
// it (CLOCK skips pinned frames, so the bytes stay valid until
// Release); a miss fills a frame once and lends that. If every frame in
// the stripe is pinned, the view is the fill's private pooled copy
// instead, so View never fails just because the cache is saturated with
// pins.
func (p *BufferPool) View(id PageID) (PageView, error) {
	v, _, err := p.view(id)
	return v, err
}

// view is View, also reporting whether the page was a miss, which read
// the device (see IOCount.View).
func (p *BufferPool) view(id PageID) (PageView, bool, error) {
	sh := p.shardFor(id)
	sh.mu.Lock()
	if slot, ok := sh.slots[id]; ok {
		// pinLocked by hand: the call does not inline, and this is the
		// hot path.
		fr := &sh.ring[slot]
		fr.ref = true
		fr.pins++
		sh.hits++
		data := fr.data
		sh.mu.Unlock()
		return PageView{data: data, sh: sh, slot: slot}, false, nil
	}
	sh.misses++
	writes := sh.writes
	sh.mu.Unlock()
	v, err := p.fill(sh, id, writes)
	return v, true, err
}

// pinLocked pins the frame in slot and lends it out, releasing sh.mu.
func (sh *poolShard) pinLocked(slot int) PageView {
	fr := &sh.ring[slot]
	fr.ref = true
	fr.pins++
	data := fr.data
	sh.mu.Unlock()
	return PageView{data: data, sh: sh, slot: slot}
}

// fill serves page id from the device. The caller found it not
// resident in sh, read writes = sh.writes and released sh.mu, so the
// device read runs with no lock held. The page goes into a pooled
// buffer, which is installed in a CLOCK victim's slot (the victim's
// buffer goes back to the pool). If another reader installed the page
// during the read, that frame is shared instead. If a Write to the
// shard ran during the read, the bytes may predate it or mix both
// versions, so the read is repeated. If every frame is pinned, the
// buffer is served as an uncached private view.
func (p *BufferPool) fill(sh *poolShard, id PageID, writes uint64) (PageView, error) {
	buf := GetPageBuf(p.dev.BlockSize())
	for {
		if err := p.dev.Read(id, *buf); err != nil {
			PutPageBuf(buf)
			return PageView{}, err
		}
		sh.mu.Lock()
		if slot, ok := sh.slots[id]; ok {
			PutPageBuf(buf)
			return sh.pinLocked(slot), nil
		}
		if sh.writes == writes {
			break
		}
		writes = sh.writes
		sh.mu.Unlock()
	}
	slot := sh.freeSlotLocked()
	if slot < 0 {
		sh.mu.Unlock()
		return PageView{data: *buf, buf: buf}, nil
	}
	sh.ring[slot] = clockFrame{id: id, buf: buf, data: *buf}
	sh.slots[id] = slot
	return sh.pinLocked(slot), nil
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
// page's shard lock, and a resident frame is replaced with a fresh copy,
// so a concurrent hit sees either the old page or the new one, never a
// mix. The replaced buffer is dropped, not recycled: a pinned view may
// still hold it. Bumping the shard's write counter makes any fill whose
// device read overlapped this Write read again.
func (p *BufferPool) Write(id PageID, data []byte) error {
	sh := p.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.writes++
	if err := p.dev.Write(id, data); err != nil {
		return err
	}
	if slot, ok := sh.slots[id]; ok {
		page := GetPageBuf(p.dev.BlockSize())
		clear((*page)[copy(*page, data):])
		sh.ring[slot].buf = page
		sh.ring[slot].data = *page
	}
	return nil
}

// freeSlotLocked returns a ring slot to install into: a fresh slot
// while the ring is cold, else the first frame the CLOCK hand finds
// with a clear reference bit (second chance: set bits are cleared and
// skipped). Pinned frames — outstanding PageViews — are never
// reclaimed: a view's (shard, slot) address must stay valid until
// Release. The victim has no pins, so its buffer goes back to the page
// pool. The sweep is bounded at two full revolutions (the first clears
// every unpinned ref bit, the second must then find a victim); if none
// is found, every frame is pinned and -1 is returned for the caller to
// degrade gracefully.
func (sh *poolShard) freeSlotLocked() int {
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
		PutPageBuf(fr.buf)
		*fr = clockFrame{}
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
