// Scoped invalidation: instead of a single dataset version that any
// append bumps (evicting every cached answer), mutations are recorded
// in a Journal as (series, time-range) scoped events, and each cached
// entry remembers the query footprint it depends on. A lookup serves a
// stored entry iff no journal event recorded since the entry was stored
// overlaps the entry's scope — so an append to series S at time t only
// invalidates answers whose window could have observed it, and a hot
// writer appending at the frontier no longer nukes answers about the
// past.
//
// Staleness stays impossible by construction: writers record the event
// after the data mutation is visible, so any lookup that could observe
// the old data also observes the event (or an even newer version) and
// misses. The journal is a bounded ring; when a lookup would need
// history the ring has already evicted, it conservatively reports
// "changed" — degrading to the old global-invalidation behavior, never
// serving stale.
package qcache

import (
	"context"
	"math"
	"sync"
)

// Scope is the (series, time-range) footprint of a cached answer or of
// a mutation event. Series < 0 means "all series". The time range is a
// closed interval [T1, T2]; an instant footprint is [t, t].
type Scope struct {
	Series int
	T1, T2 float64
}

// ScopeAll overlaps every scope: recording it invalidates everything,
// the pre-scoped "global nuke" behavior.
var ScopeAll = Scope{Series: -1, T1: math.Inf(-1), T2: math.Inf(1)}

// Overlaps reports whether the two footprints can share data: the
// series match (or either side is a wildcard) and the closed time
// intervals intersect.
func (s Scope) Overlaps(o Scope) bool {
	if s.Series >= 0 && o.Series >= 0 && s.Series != o.Series {
		return false
	}
	return s.T1 <= o.T2 && o.T1 <= s.T2
}

// defaultJournalEvents is the ring capacity when NewJournal is given a
// non-positive size: enough history that a reader revalidating a hot
// entry between appends never falls off the ring in practice, small
// enough (24 B/event) to embed one journal per DB.
const defaultJournalEvents = 1024

// Journal is an append-only, bounded record of scoped mutation events,
// identified by a monotone version counter (the version of a journal is
// the version of its newest event; a fresh journal is at version 0). It
// is safe for concurrent use.
type Journal struct {
	mu   sync.RWMutex
	ring []Scope // event v lives at ring[(v-1) % len(ring)]
	ver  uint64
}

// NewJournal creates a journal retaining the last capacity events
// (capacity <= 0 selects a default).
func NewJournal(capacity int) *Journal {
	if capacity <= 0 {
		capacity = defaultJournalEvents
	}
	return &Journal{ring: make([]Scope, capacity)}
}

// Advance records a mutation event with the given footprint and returns
// its version. Record the event only after the mutation is visible to
// readers: lookups then can't validate an entry computed from the old
// data past this event.
func (j *Journal) Advance(scope Scope) uint64 {
	j.mu.Lock()
	j.ver++
	j.ring[(j.ver-1)%uint64(len(j.ring))] = scope
	ver := j.ver
	j.mu.Unlock()
	return ver
}

// Version returns the version of the newest recorded event (0 if none).
func (j *Journal) Version() uint64 {
	j.mu.RLock()
	v := j.ver
	j.mu.RUnlock()
	return v
}

// Unchanged reports whether no event recorded after version since
// overlaps scope. On ok == true, upTo is the journal's current version:
// the caller may advance its recorded version to upTo and skip the same
// events next time. ok == false means an overlapping event exists — or
// the ring has already evicted part of the needed history, in which
// case Unchanged conservatively reports changed.
func (j *Journal) Unchanged(since uint64, scope Scope) (upTo uint64, ok bool) {
	j.mu.RLock()
	defer j.mu.RUnlock()
	if since >= j.ver {
		return j.ver, true
	}
	if j.ver-since > uint64(len(j.ring)) {
		return j.ver, false // history evicted: assume changed
	}
	for v := since + 1; v <= j.ver; v++ {
		if j.ring[(v-1)%uint64(len(j.ring))].Overlaps(scope) {
			return j.ver, false
		}
	}
	return j.ver, true
}

// DoScoped is Do with journal-scoped validity in place of a single
// version number: an entry stored by DoScoped is served while every
// journal in js reports Unchanged for the entry's scope since the
// versions recorded at store time. js must be the same journals (same
// order) on every call for a given key; scope must cover all data the
// answer depends on.
//
// Validated hits advance the entry's recorded versions in place, so the
// steady-state hit path performs no allocation. Coalescing, error, and
// context semantics match Do.
func (c *Cache[K, V]) DoScoped(ctx context.Context, key K, js []*Journal, scope Scope, fn func() (V, error)) (v V, cached bool, err error) {
	for joined := 0; ; joined++ {
		c.mu.Lock()
		if e, ok := c.entries[key]; ok {
			if c.scopedValidLocked(e, js) {
				e.visited = true
				v = e.val // before unlocking: storeScopedLocked rewrites it
				c.mu.Unlock()
				c.hits.Add(1)
				return v, true, nil
			}
			// Invalidated by an overlapping event (or stored by the
			// unscoped Do): reclaim the slot now.
			c.removeLocked(e)
		}
		// Snapshot the journal versions before fn runs: events recorded
		// during fn must postdate the entry so the next lookup rechecks
		// them. The sum doubles as the flight identity — versions are
		// monotone, so equal sums imply equal vectors, and a caller that
		// has observed a newer event never joins an older flight.
		versions := make([]uint64, len(js))
		var sum uint64
		for i, j := range js {
			versions[i] = j.Version()
			sum += versions[i]
		}
		fk := flightKey[K]{key: key, version: sum}
		if f, ok := c.flights[fk]; ok && joined < maxJoinedFlights {
			c.mu.Unlock()
			c.coalesced.Add(1)
			select {
			case <-f.done:
				if f.err == nil {
					return f.val, true, nil
				}
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
				c.storeScopedLocked(key, versions, scope, val)
				c.mu.Unlock()
			}
			return val, false, err
		}
		f.val, f.err = val, err
		c.mu.Lock()
		delete(c.flights, fk)
		if err == nil {
			c.storeScopedLocked(key, versions, scope, val)
		}
		c.mu.Unlock()
		close(f.done)
		return val, false, err
	}
}

// scopedValidLocked reports whether the entry is still valid against
// every journal, bumping its recorded versions in place as journals
// confirm no overlapping events. Caller holds c.mu; journal locks nest
// inside the cache lock (nothing acquires c.mu under a journal lock).
func (c *Cache[K, V]) scopedValidLocked(e *entry[K, V], js []*Journal) bool {
	if e.versions == nil || len(e.versions) != len(js) {
		return false
	}
	for i, j := range js {
		upTo, ok := j.Unchanged(e.versions[i], e.scope)
		if !ok {
			return false
		}
		e.versions[i] = upTo
	}
	return true
}

// storeScopedLocked inserts or refreshes a scoped entry, evicting one
// entry when the cache is full (see pushLocked). Caller holds c.mu.
func (c *Cache[K, V]) storeScopedLocked(key K, versions []uint64, scope Scope, val V) {
	if e, ok := c.entries[key]; ok {
		e.versions, e.scope, e.val, e.visited = versions, scope, val, true
		return
	}
	c.pushLocked(&entry[K, V]{key: key, versions: versions, scope: scope, val: val})
}
