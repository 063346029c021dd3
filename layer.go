package temporalrank

import (
	"sync"
	"sync/atomic"

	"temporalrank/internal/memtable"
)

// generation is one immutable generation of the delta layer: a base B
// (the compacted dataset + indexes), an optional frozen table a
// compaction is draining, and the active table taking writes.
// Generations are never mutated — transitions build a new generation
// and publish it atomically — so a reader holding a *generation sees a
// consistent base/frozen/active triple for as long as it likes.
type generation[B any] struct {
	Base   B
	Frozen *memtable.Table
	Active *memtable.Table
}

// layer is the generation holder: readers pin the current generation
// with one atomic load; writers insert into the pinned generation's
// active table under a shared lock; freeze/install transitions swap the
// generation under the exclusive side of the same lock, so a transition
// waits out in-flight appends and no append can land in a table after
// it freezes. Appends take two brief locks, swapMu and then the
// table's writer mutex; reads take none.
type layer[B any] struct {
	// swapMu orders appends against generation swaps. Append takes a
	// table's writer mutex under swapMu.RLock. The order cannot invert:
	// memtable does not import this package, so no Table code reaches
	// swapMu.
	swapMu sync.RWMutex
	gen    atomic.Pointer[generation[B]]
}

// newLayer creates a layer publishing g as the current generation.
func newLayer[B any](g *generation[B]) *layer[B] {
	l := &layer[B]{}
	l.gen.Store(g)
	return l
}

// Load pins and returns the current generation. Lock-free.
func (l *layer[B]) Load() *generation[B] { return l.gen.Load() }

// Append inserts one segment into the current generation's active
// table, returning the series' previous end time. The shared swap lock
// guarantees the insert lands in a table that is still active — a
// concurrent freeze waits for it.
func (l *layer[B]) Append(id int, t, v float64) (prevEnd float64, err error) {
	l.swapMu.RLock()
	prevEnd, err = l.gen.Load().Active.Append(id, t, v)
	l.swapMu.RUnlock()
	return prevEnd, err
}

// Update publishes f(current) as the new generation and returns it,
// holding the exclusive swap lock across the transition. f must be
// brief (build work belongs between transitions, not inside one) and
// may return its argument unchanged to decline the transition.
func (l *layer[B]) Update(f func(old *generation[B]) *generation[B]) *generation[B] {
	l.swapMu.Lock()
	g := f(l.gen.Load())
	l.gen.Store(g)
	l.swapMu.Unlock()
	return g
}
