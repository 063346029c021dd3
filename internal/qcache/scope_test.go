package qcache

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
)

func TestScopeOverlaps(t *testing.T) {
	cases := []struct {
		a, b Scope
		want bool
	}{
		{Scope{Series: 1, T1: 0, T2: 10}, Scope{Series: 1, T1: 5, T2: 15}, true},
		{Scope{Series: 1, T1: 0, T2: 10}, Scope{Series: 2, T1: 5, T2: 15}, false},
		{Scope{Series: -1, T1: 0, T2: 10}, Scope{Series: 2, T1: 5, T2: 15}, true},
		{Scope{Series: 1, T1: 0, T2: 10}, Scope{Series: -1, T1: 5, T2: 15}, true},
		{Scope{Series: 1, T1: 0, T2: 10}, Scope{Series: 1, T1: 10, T2: 20}, true},  // closed: touching endpoints share t=10
		{Scope{Series: 1, T1: 0, T2: 10}, Scope{Series: 1, T1: 11, T2: 20}, false}, // disjoint in time
		{ScopeAll, Scope{Series: 7, T1: 1e9, T2: 1e9}, true},
		{Scope{Series: 3, T1: 5, T2: 5}, Scope{Series: 3, T1: 5, T2: 5}, true}, // instant on instant
	}
	for i, c := range cases {
		if got := c.a.Overlaps(c.b); got != c.want {
			t.Errorf("case %d: %+v.Overlaps(%+v) = %v, want %v", i, c.a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(c.a); got != c.want {
			t.Errorf("case %d: overlap not symmetric", i)
		}
	}
}

func TestJournalUnchanged(t *testing.T) {
	j := NewJournal(8)
	probe := Scope{Series: 1, T1: 0, T2: 10}

	if upTo, ok := j.Unchanged(0, probe); !ok || upTo != 0 {
		t.Fatalf("fresh journal: (%d, %v), want (0, true)", upTo, ok)
	}
	v1 := j.Advance(Scope{Series: 2, T1: 0, T2: 10}) // other series
	if v1 != 1 {
		t.Fatalf("first event version %d", v1)
	}
	if upTo, ok := j.Unchanged(0, probe); !ok || upTo != 1 {
		t.Fatalf("non-overlapping event broke validity: (%d, %v)", upTo, ok)
	}
	j.Advance(Scope{Series: 1, T1: 20, T2: 30}) // same series, disjoint time
	if _, ok := j.Unchanged(0, probe); !ok {
		t.Fatal("disjoint-time event broke validity")
	}
	j.Advance(Scope{Series: 1, T1: 5, T2: 6}) // overlapping
	if _, ok := j.Unchanged(0, probe); ok {
		t.Fatal("overlapping event not detected")
	}
	// Validity resumes past the overlapping event.
	if upTo, ok := j.Unchanged(3, probe); !ok || upTo != 3 {
		t.Fatalf("validity past the overlap: (%d, %v)", upTo, ok)
	}
}

// TestJournalEvictionConservative: once the ring has dropped the needed
// history, Unchanged must report changed even when every evicted event
// was harmless.
func TestJournalEvictionConservative(t *testing.T) {
	j := NewJournal(4)
	probe := Scope{Series: 1, T1: 0, T2: 10}
	for i := 0; i < 4; i++ {
		j.Advance(Scope{Series: 99, T1: 1000, T2: 1001}) // far away
	}
	if _, ok := j.Unchanged(0, probe); !ok {
		t.Fatal("history still fully in the ring, should validate")
	}
	j.Advance(Scope{Series: 99, T1: 1000, T2: 1001}) // pushes event 1 out
	if _, ok := j.Unchanged(0, probe); ok {
		t.Fatal("evicted history validated — must be conservative")
	}
	if _, ok := j.Unchanged(1, probe); !ok {
		t.Fatal("since=1 needs events 2..5, all retained — should validate")
	}
}

// TestDoScopedProperty is the randomized model check for scoped
// invalidation: against a replayable model of every journal event, a
// cached answer is served iff no event recorded since the entry's
// (continually re-validated) version overlaps its scope — and a served
// answer is always the exact value stored. Capacity equals the key
// count, so no eviction interferes.
func TestDoScopedProperty(t *testing.T) {
	doScopedProperty(t, 6, 6, 42)
}

// TestDoScopedPropertyEvicting runs the model check with fewer slots
// than keys, so the hand evicts while lookups invalidate and re-insert
// entries under it: an entry the model expects may have been evicted,
// but a served answer must still be the exact value stored and valid,
// and Len must stay within capacity.
func TestDoScopedPropertyEvicting(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		doScopedProperty(t, 12, 5, seed)
	}
}

// doScopedProperty runs the model check over keys keys through a cache
// of the given capacity. Below keys, the model's expected hit may miss
// (the entry was evicted); every other prediction is exact.
func doScopedProperty(t *testing.T, keys, capacity int, seed int64) {
	t.Helper()
	const (
		series = 4
		steps  = 4000
	)
	rng := rand.New(rand.NewSource(seed))
	c := New[int, int](capacity)
	j := NewJournal(0) // default capacity far above steps between lookups
	ctx := context.Background()

	// The model: every event ever recorded, plus per-key entry state.
	type modelEntry struct {
		validatedAt uint64 // events <= this are known non-overlapping
		scope       Scope
		val         int
		live        bool
	}
	var events []Scope // events[v-1] is the scope of version v
	model := make([]modelEntry, keys)
	randScope := func() Scope {
		t1 := rng.Float64() * 100
		return Scope{Series: rng.Intn(series), T1: t1, T2: t1 + rng.Float64()*20}
	}
	next := 1000 // distinct value per computation
	evictions := 0

	for step := 0; step < steps; step++ {
		if rng.Intn(2) == 0 {
			s := randScope()
			j.Advance(s)
			events = append(events, s)
			continue
		}
		key := rng.Intn(keys)
		var scope Scope
		if m := model[key]; m.live {
			scope = m.scope // a key's scope is stable, like a query's footprint
		} else {
			scope = randScope()
		}
		// What the model predicts BEFORE the call.
		expectHit := false
		if m := model[key]; m.live {
			expectHit = true
			for v := m.validatedAt + 1; v <= uint64(len(events)); v++ {
				if events[v-1].Overlaps(m.scope) {
					expectHit = false
					break
				}
			}
		}
		next++
		mine := next
		got, cached, err := c.DoScoped(ctx, key, []*Journal{j}, scope, func() (int, error) {
			return mine, nil
		})
		if err != nil {
			t.Fatal(err)
		}
		evicted := !cached && expectHit && capacity < keys
		if evicted {
			evictions++
		}
		if cached != expectHit && !evicted {
			t.Fatalf("step %d key %d: cached=%v, model says %v (validatedAt=%d, events=%d)",
				step, key, cached, expectHit, model[key].validatedAt, len(events))
		}
		if n := c.Len(); n > capacity {
			t.Fatalf("step %d: Len = %d past capacity %d", step, n, capacity)
		}
		if cached {
			if got != model[key].val {
				t.Fatalf("step %d key %d: served %d, stored value was %d — STALE",
					step, key, got, model[key].val)
			}
			model[key].validatedAt = uint64(len(events))
		} else {
			if got != mine {
				t.Fatalf("step %d key %d: miss returned %d, fn computed %d", step, key, got, mine)
			}
			model[key] = modelEntry{validatedAt: uint64(len(events)), scope: scope, val: mine, live: true}
		}
	}
	st := c.Stats()
	if st.Hits == 0 || st.Misses == 0 {
		t.Fatalf("degenerate run: %+v — property not exercised", st)
	}
	if capacity < keys && evictions == 0 {
		t.Fatalf("no expected hit was evicted in %d steps — eviction not exercised", steps)
	}
}

// TestDoScopedMultiJournal: with several journals (the cluster case),
// an overlapping event in ANY journal invalidates.
func TestDoScopedMultiJournal(t *testing.T) {
	c := New[string, int](4)
	j1, j2 := NewJournal(8), NewJournal(8)
	js := []*Journal{j1, j2}
	scope := Scope{Series: -1, T1: 0, T2: 10}
	ctx := context.Background()

	calls := 0
	fn := func() (int, error) { calls++; return calls, nil }
	if _, cached, _ := c.DoScoped(ctx, "q", js, scope, fn); cached {
		t.Fatal("first call hit")
	}
	if _, cached, _ := c.DoScoped(ctx, "q", js, scope, fn); !cached {
		t.Fatal("unchanged journals missed")
	}
	j2.Advance(Scope{Series: 0, T1: 5, T2: 6})
	if _, cached, _ := c.DoScoped(ctx, "q", js, scope, fn); cached {
		t.Fatal("overlap in second journal not detected")
	}
	j1.Advance(Scope{Series: 0, T1: 100, T2: 101}) // outside scope
	if _, cached, _ := c.DoScoped(ctx, "q", js, scope, fn); !cached {
		t.Fatal("non-overlapping event caused a miss")
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times, want 2", calls)
	}
}

// TestDoScopedDoInterplay: entries stored by the unscoped Do are never
// served by DoScoped and vice versa — the two validity disciplines
// don't cross-contaminate.
func TestDoScopedDoInterplay(t *testing.T) {
	c := New[string, int](4)
	j := NewJournal(8)
	ctx := context.Background()
	scope := Scope{Series: -1, T1: 0, T2: 10}

	if _, _, err := c.Do(ctx, "k", 7, func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if _, cached, _ := c.DoScoped(ctx, "k", []*Journal{j}, scope, func() (int, error) { return 2, nil }); cached {
		t.Fatal("DoScoped served a Do entry")
	}
	if _, cached, _ := c.Do(ctx, "k", 7, func() (int, error) { return 3, nil }); cached {
		t.Fatal("Do served a DoScoped entry")
	}
}

// TestDoScopedHitRatioBeatsCoarse is the regression the scoped design
// exists for: under a frontier-writer workload (appends always past
// the cached windows), scoped invalidation keeps serving hits while
// a coarse global-nuke baseline (every event recorded as ScopeAll)
// misses on every post-append lookup.
func TestDoScopedHitRatioBeatsCoarse(t *testing.T) {
	run := func(coarse bool) Stats {
		c := New[string, int](16)
		j := NewJournal(0)
		ctx := context.Background()
		frontier := 1000.0
		for i := 0; i < 200; i++ {
			// One append at the frontier, then two queries about the past.
			ev := Scope{Series: i % 8, T1: frontier, T2: frontier + 1}
			if coarse {
				ev = ScopeAll
			}
			j.Advance(ev)
			frontier++
			for _, key := range []string{"old-a", "old-b"} {
				scope := Scope{Series: -1, T1: 0, T2: 100}
				if _, _, err := c.DoScoped(ctx, key, []*Journal{j}, scope, func() (int, error) { return i, nil }); err != nil {
					t.Fatal(err)
				}
			}
		}
		return c.Stats()
	}
	scoped := run(false)
	coarse := run(true)
	scopedRatio := float64(scoped.Hits) / float64(scoped.Hits+scoped.Misses)
	coarseRatio := float64(coarse.Hits) / float64(coarse.Hits+coarse.Misses)
	if scopedRatio <= coarseRatio {
		t.Fatalf("scoped hit ratio %.3f not better than coarse %.3f", scopedRatio, coarseRatio)
	}
	if scoped.Hits < 390 { // 400 lookups, 2 cold misses
		t.Fatalf("scoped mode should hit nearly always: %+v", scoped)
	}
	if coarse.Hits != 0 {
		t.Fatalf("coarse mode with an append before every lookup pair should never hit: %+v", coarse)
	}
}

// TestDoScopedConcurrent exercises the zero-alloc validated-hit path
// and the flight identity under concurrency; run with -race.
func TestDoScopedConcurrent(t *testing.T) {
	c := New[int, int](8)
	j := NewJournal(0)
	ctx := context.Background()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 500; i++ {
			j.Advance(Scope{Series: i % 3, T1: float64(i), T2: float64(i + 1)})
		}
	}()
	var errs [4]error
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				key := i % 8
				scope := Scope{Series: key % 3, T1: float64(i % 50), T2: float64(i%50 + 5)}
				if _, _, err := c.DoScoped(ctx, key, []*Journal{j}, scope, func() (int, error) { return i, nil }); err != nil {
					errs[g] = err
					return
				}
			}
		}(g)
	}
	wg.Wait()
	<-done
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

// BenchmarkDoScopedHit asserts the steady-state validated-hit path
// stays allocation-free (CI checks allocs/op on the planner's cached
// benchmark; this pins the qcache layer in isolation).
func BenchmarkDoScopedHit(b *testing.B) {
	c := New[int, int](4)
	j := NewJournal(0)
	ctx := context.Background()
	scope := Scope{Series: -1, T1: 0, T2: 10}
	if _, _, err := c.DoScoped(ctx, 1, []*Journal{j}, scope, func() (int, error) { return 7, nil }); err != nil {
		b.Fatal(err)
	}
	js := []*Journal{j}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			j.Advance(Scope{Series: 0, T1: 1000, T2: 1001}) // never overlaps
		}
		if _, cached, _ := c.DoScoped(ctx, 1, js, scope, func() (int, error) { return 7, nil }); !cached {
			b.Fatal("hit path missed")
		}
	}
}

// BenchmarkCacheZipfParallel drives DoScoped from every core over
// Zipf(1.2)-drawn keys, 4,096 of them through 256 slots, so hits set
// visited bits while misses move the hand and evict; one lookup in 64
// first records a journal event that invalidates some cached windows.
// Run it at -cpu=4 (and under -race) to put eviction, hits and
// invalidation on real threads at once.
func BenchmarkCacheZipfParallel(b *testing.B) {
	const keys = 4096
	c := New[int, int](256)
	j := NewJournal(0)
	js := []*Journal{j}
	ctx := context.Background()
	var seed atomic.Int64
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seed.Add(1)))
		zipf := rand.NewZipf(rng, 1.2, 1, keys-1)
		for i := 0; pb.Next(); i++ {
			if i%64 == 0 {
				t := float64(rng.Intn(keys))
				j.Advance(Scope{Series: rng.Intn(4), T1: t, T2: t + 1})
			}
			key := int(zipf.Uint64())
			scope := Scope{Series: key % 4, T1: float64(key), T2: float64(key + 8)}
			v, _, err := c.DoScoped(ctx, key, js, scope, func() (int, error) { return key, nil })
			if err != nil || v != key {
				b.Errorf("DoScoped(%d) = (%d, %v)", key, v, err)
				return
			}
		}
	})
	if n := c.Len(); n > c.Cap() {
		b.Fatalf("Len = %d past capacity %d", n, c.Cap())
	}
}
