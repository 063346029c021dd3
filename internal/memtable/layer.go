package memtable

import (
	"sync"
	"sync/atomic"
)

// Gen is one immutable generation of the delta layer: a base B (the
// compacted dataset + indexes, opaque to this package), an optional
// frozen table a compaction is draining, and the active table taking
// writes. Generations are never mutated — transitions build a new Gen
// and publish it atomically — so a reader holding a *Gen sees a
// consistent base/frozen/active triple for as long as it likes.
type Gen[B any] struct {
	Base   B
	Frozen *Table
	Active *Table
}

// Layer is the generation holder: readers pin the current generation
// with one atomic load; writers insert into the pinned generation's
// active table under a shared lock; freeze/install transitions swap the
// generation under the exclusive side of the same lock, so a transition
// waits out in-flight appends and no append can land in a table after
// it freezes.
type Layer[B any] struct {
	// swapMu orders appends against generation swaps. It ranks above
	// a table's writer mutex, which Append takes under swapMu.RLock.
	swapMu sync.RWMutex //tr:lockrank 1
	gen    atomic.Pointer[Gen[B]]
}

// NewLayer creates a layer publishing g as the current generation.
func NewLayer[B any](g *Gen[B]) *Layer[B] {
	l := &Layer[B]{}
	l.gen.Store(g)
	return l
}

// Load pins and returns the current generation. Lock-free.
func (l *Layer[B]) Load() *Gen[B] { return l.gen.Load() }

// Append inserts one segment into the current generation's active
// table, returning the series' previous end time. The shared swap lock
// guarantees the insert lands in a table that is still active — a
// concurrent freeze waits for it.
func (l *Layer[B]) Append(id int, t, v float64) (prevEnd float64, err error) {
	l.swapMu.RLock()
	prevEnd, err = l.gen.Load().Active.Append(id, t, v)
	l.swapMu.RUnlock()
	return prevEnd, err
}

// Update publishes f(current) as the new generation and returns it,
// holding the exclusive swap lock across the transition. f must be
// brief (build work belongs between transitions, not inside one) and
// may return its argument unchanged to decline the transition.
func (l *Layer[B]) Update(f func(old *Gen[B]) *Gen[B]) *Gen[B] {
	l.swapMu.Lock()
	g := f(l.gen.Load())
	l.gen.Store(g)
	l.swapMu.Unlock()
	return g
}
