package temporalrank

import (
	"sync"
	"sync/atomic"
	"testing"

	"temporalrank/internal/memtable"
)

// flatFrontier is a FrontierFunc over n series all ending at (t0, v0).
func flatFrontier(n int, t0, v0 float64) memtable.FrontierFunc {
	return func(id int) (float64, float64, bool) {
		if id < 0 || id >= n {
			return 0, 0, false
		}
		return t0, v0, true
	}
}

func TestLayerGenerations(t *testing.T) {
	type base struct{ gen int }
	active := memtable.NewTable(flatFrontier(4, 0, 0), 0)
	l := newLayer(&generation[base]{Base: base{gen: 0}, Active: active})

	if _, err := l.Append(1, 5, 2); err != nil {
		t.Fatal(err)
	}
	g := l.Load()
	if g.Active != active || g.Frozen != nil || g.Base.gen != 0 {
		t.Fatal("load returned a different generation")
	}

	// Freeze: active becomes frozen, a fresh table takes writes.
	fresh := memtable.NewTable(flatFrontier(4, 0, 0), 0)
	g2 := l.Update(func(old *generation[base]) *generation[base] {
		return &generation[base]{Base: old.Base, Frozen: old.Active, Active: fresh}
	})
	if g2.Frozen != active || g2.Active != fresh {
		t.Fatal("freeze transition wrong")
	}
	if g.Frozen != nil {
		t.Fatal("previously pinned generation mutated")
	}
	// Install: frozen drains into a new base.
	g3 := l.Update(func(old *generation[base]) *generation[base] {
		return &generation[base]{Base: base{gen: 1}, Active: old.Active}
	})
	if g3.Frozen != nil || g3.Base.gen != 1 || g3.Active != fresh {
		t.Fatal("install transition wrong")
	}
	// Declining a transition returns the argument unchanged.
	g4 := l.Update(func(old *generation[base]) *generation[base] { return old })
	if g4 != g3 {
		t.Fatal("declined transition replaced the generation")
	}
}

// TestLayerAppendSwapRace freezes generations while writers append;
// every append must land in exactly one table (none lost, none
// duplicated). Run with -race.
func TestLayerAppendSwapRace(t *testing.T) {
	const series = 16
	// A fixed base frontier at t=0 keeps every run valid no matter when
	// a swap resets it: per-series append times only ever grow, so a
	// fresh table's seed vertex (0, 0) always precedes the next append.
	frontier := flatFrontier(series, 0, 0)
	l := newLayer(&generation[int]{Active: memtable.NewTable(frontier, 0)})

	var writers sync.WaitGroup
	var appended atomic.Int64
	for w := 0; w < 4; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			// Writer w owns series w*4..w*4+3; each id's times strictly
			// increase across iterations.
			for i := 0; i < 200; i++ {
				id := w*4 + i%4
				ts := float64(i/4 + 1)
				if _, err := l.Append(id, ts, 1); err != nil {
					t.Errorf("append: %v", err)
					return
				}
				appended.Add(1)
			}
		}(w)
	}
	stop := make(chan struct{})
	var swapper sync.WaitGroup
	var drained int64 // owned by the swapper goroutine; read after Wait
	swapper.Add(1)
	go func() {
		defer swapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			g := l.Update(func(old *generation[int]) *generation[int] {
				if old.Active.Segments() == 0 {
					return old
				}
				return &generation[int]{Frozen: old.Active, Active: memtable.NewTable(frontier, 0)}
			})
			if g.Frozen != nil {
				drained += g.Frozen.Segments()
				l.Update(func(old *generation[int]) *generation[int] {
					return &generation[int]{Active: old.Active}
				})
			}
		}
	}()
	writers.Wait()
	close(stop)
	swapper.Wait()
	drained += l.Load().Active.Segments()
	if g := l.Load(); g.Frozen != nil {
		drained += g.Frozen.Segments()
	}
	if drained != appended.Load() {
		t.Fatalf("drained %d segments, appended %d", drained, appended.Load())
	}
}
