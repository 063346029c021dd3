package qcache

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestHitMissAndVersioning(t *testing.T) {
	c := New[string, int](8)
	ctx := context.Background()
	calls := 0
	fn := func(v int) func() (int, error) {
		return func() (int, error) { calls++; return v, nil }
	}

	got, cached, err := c.Do(ctx, "q", 1, fn(10))
	if err != nil || got != 10 || cached {
		t.Fatalf("first Do = (%d, %v, %v), want (10, false, nil)", got, cached, err)
	}
	got, cached, err = c.Do(ctx, "q", 1, fn(99))
	if err != nil || got != 10 || !cached {
		t.Fatalf("second Do = (%d, %v, %v), want cached 10", got, cached, err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times, want 1", calls)
	}

	// A version bump makes the entry unreachable: the computation runs
	// again and the new value is served thereafter.
	got, cached, err = c.Do(ctx, "q", 2, fn(20))
	if err != nil || got != 20 || cached {
		t.Fatalf("post-bump Do = (%d, %v, %v), want fresh 20", got, cached, err)
	}
	if calls != 2 {
		t.Fatalf("fn ran %d times after bump, want 2", calls)
	}
	got, _, _ = c.Do(ctx, "q", 2, fn(99))
	if got != 20 {
		t.Fatalf("post-bump cached value = %d, want 20", got)
	}

	s := c.Stats()
	if s.Hits != 2 || s.Misses != 2 || s.Coalesced != 0 {
		t.Fatalf("stats = %+v, want hits=2 misses=2 coalesced=0", s)
	}
}

// TestEvictionBound: the cache never holds more than its capacity, and
// an evicted entry is recomputed rather than served.
func TestEvictionBound(t *testing.T) {
	c := New[string, int](2)
	ctx := context.Background()
	do := func(key string) (bool, error) {
		_, cached, err := c.Do(ctx, key, 1, func() (int, error) { return 1, nil })
		return cached, err
	}
	for _, k := range []string{"a", "b", "c"} { // c evicts a
		if _, err := do(k); err != nil {
			t.Fatal(err)
		}
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	if cached, _ := do("a"); cached {
		t.Fatal("evicted entry served as hit")
	}
	if cached, _ := do("b"); cached {
		t.Fatal("entry b should have been evicted by a's re-insert")
	}
	if cached, _ := do("a"); !cached {
		t.Fatal("recently re-inserted entry missing")
	}
}

// TestSecondChance pins what SIEVE keeps that LRU would not: at
// capacity 2, after a, a hit on a, b and c, the insert of c finds a
// visited and evicts b. LRU would evict a, the least recently used.
func TestSecondChance(t *testing.T) {
	c := New[string, int](2)
	ctx := context.Background()
	do := func(key string) bool {
		_, cached, err := c.Do(ctx, key, 1, func() (int, error) { return 1, nil })
		if err != nil {
			t.Fatal(err)
		}
		return cached
	}
	for _, k := range []string{"a", "a", "b", "c"} {
		do(k)
	}
	if c.Len() != 2 {
		t.Fatalf("Len = %d, want 2", c.Len())
	}
	// A hit inserts nothing, so probing a first leaves b's slot as is.
	if !do("a") {
		t.Fatal("a, the visited entry, was evicted")
	}
	if do("b") {
		t.Fatal("b survived although a was the visited entry")
	}
}

// zipfHitRatio replays lookups through a cache of the given capacity:
// next returns each lookup's key and whether it counts toward the
// ratio, and the ratio is hits over counted lookups.
func zipfHitRatio(t *testing.T, capacity, lookups int, next func() (key int, counted bool)) float64 {
	t.Helper()
	c := New[int, int](capacity)
	ctx := context.Background()
	hits, counted := 0, 0
	for i := 0; i < lookups; i++ {
		key, count := next()
		_, cached, err := c.Do(ctx, key, 1, func() (int, error) { return key, nil })
		if err != nil {
			t.Fatal(err)
		}
		if i%1024 == 0 && c.Len() > capacity {
			t.Fatalf("Len = %d past capacity %d", c.Len(), capacity)
		}
		if count {
			counted++
			if cached {
				hits++
			}
		}
	}
	return float64(hits) / float64(counted)
}

// TestHitRatioRepeatShape replays the repeat-approx shape: two clients,
// each drawing from its own seeded Zipf(1.2) over 4,096 templates,
// interleaved through a 256-entry cache. SIEVE hits 0.840 of these
// lookups and LRU 0.785; a hand that does not move on from the
// entries whose bits it cleared evicts them next and falls below LRU.
func TestHitRatioRepeatShape(t *testing.T) {
	streams := []*rand.Zipf{
		rand.NewZipf(rand.New(rand.NewSource(1)), 1.2, 1, 4095),
		rand.NewZipf(rand.New(rand.NewSource(2)), 1.2, 1, 4095),
	}
	i := 0
	got := zipfHitRatio(t, 256, 1000000, func() (int, bool) {
		i++
		return int(streams[i%2].Uint64()), true
	})
	t.Logf("hit ratio %.4f", got)
	if got < 0.83 {
		t.Fatalf("hit ratio %.4f, want >= 0.83", got)
	}
}

// TestHitRatioIngestShape replays the ingest-mixed reader's shape: three
// lookups in four are Zipf(1.2) over 1,024 templates, one in four is a
// key never seen again (a latest-window query). SIEVE evicts the
// one-off keys on the hand's first pass and hits 0.896 of the repeating
// lookups through a 256-entry cache; LRU lets them push popular
// templates out and hits 0.782.
func TestHitRatioIngestShape(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	zipf := rand.NewZipf(rng, 1.2, 1, 1023)
	unique := 1 << 20
	got := zipfHitRatio(t, 256, 1000000, func() (int, bool) {
		if rng.Intn(4) < 3 {
			return int(zipf.Uint64()), true
		}
		unique++
		return unique, false
	})
	t.Logf("hit ratio on the repeating keys %.4f", got)
	if got < 0.88 {
		t.Fatalf("hit ratio on the repeating keys %.4f, want >= 0.88", got)
	}
}

func TestErrorsAreNotCached(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	boom := errors.New("boom")
	_, _, err := c.Do(ctx, "q", 1, func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	got, cached, err := c.Do(ctx, "q", 1, func() (int, error) { return 7, nil })
	if err != nil || got != 7 || cached {
		t.Fatalf("retry after error = (%d, %v, %v), want fresh 7", got, cached, err)
	}
}

// TestCoalescing pins the stampede property: N concurrent identical
// lookups execute the computation exactly once, and every caller
// receives the same value. Run under -race.
func TestCoalescing(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	const callers = 16
	var executions atomic.Int64
	release := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]int, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, _, err := c.Do(ctx, "q", 1, func() (int, error) {
				executions.Add(1)
				<-release // hold the flight open until all callers queue
				return 42, nil
			})
			results[i], errs[i] = v, err
		}(i)
	}
	// Wait until the leader is inside fn, then give the others time to
	// join the flight before releasing it.
	for executions.Load() == 0 {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	close(release)
	wg.Wait()

	if n := executions.Load(); n != 1 {
		t.Fatalf("computation executed %d times, want 1", n)
	}
	for i := range results {
		if errs[i] != nil || results[i] != 42 {
			t.Fatalf("caller %d got (%d, %v), want (42, nil)", i, results[i], errs[i])
		}
	}
	if s := c.Stats(); s.Misses != 1 || s.Coalesced != callers-1 {
		t.Fatalf("stats = %+v, want misses=1 coalesced=%d", s, callers-1)
	}
}

// TestFlightVersionIsolation: a flight started at version 1 must not
// absorb callers at version 2.
func TestFlightVersionIsolation(t *testing.T) {
	c := New[string, int](4)
	ctx := context.Background()
	release := make(chan struct{})
	started := make(chan struct{})

	done := make(chan int, 1)
	go func() {
		v, _, _ := c.Do(ctx, "q", 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
		done <- v
	}()
	<-started
	// Same key, newer version: must run its own computation, not join.
	v2, cached, err := c.Do(ctx, "q", 2, func() (int, error) { return 2, nil })
	if err != nil || cached || v2 != 2 {
		t.Fatalf("v2 lookup = (%d, %v, %v), want fresh 2", v2, cached, err)
	}
	close(release)
	if v1 := <-done; v1 != 1 {
		t.Fatalf("v1 flight returned %d, want 1", v1)
	}
}

func TestWaiterContextCancellation(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	started := make(chan struct{})
	go func() {
		_, _, _ = c.Do(context.Background(), "q", 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, cached, err := c.Do(ctx, "q", 1, func() (int, error) { return 2, nil })
	if !errors.Is(err, context.Canceled) || cached {
		t.Fatalf("cancelled waiter = (cached=%v, err=%v), want context.Canceled", cached, err)
	}
	close(release)
}

// TestFailedFlightDoesNotPoisonWaiters: when the leader's computation
// fails (e.g. its own context expired), a waiter with a healthy context
// retries and succeeds instead of inheriting the leader's error.
func TestFailedFlightDoesNotPoisonWaiters(t *testing.T) {
	c := New[string, int](4)
	release := make(chan struct{})
	started := make(chan struct{})
	leaderDone := make(chan error, 1)
	go func() {
		_, _, err := c.Do(context.Background(), "q", 1, func() (int, error) {
			close(started)
			<-release
			return 0, context.DeadlineExceeded // leader's own deadline fired
		})
		leaderDone <- err
	}()
	<-started

	waiterDone := make(chan struct{})
	var wv int
	var wcached bool
	var werr error
	go func() {
		defer close(waiterDone)
		wv, wcached, werr = c.Do(context.Background(), "q", 1, func() (int, error) {
			return 7, nil // the waiter's retry executes its own run
		})
	}()
	// Let the waiter join the flight, then fail the leader.
	time.Sleep(20 * time.Millisecond)
	close(release)

	if err := <-leaderDone; !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("leader err = %v, want its own DeadlineExceeded", err)
	}
	<-waiterDone
	if werr != nil || wv != 7 {
		t.Fatalf("waiter = (%d, %v), want (7, nil): healthy waiter must not inherit leader failure", wv, werr)
	}
	_ = wcached
	// The retry's result is cached for subsequent callers.
	got, cached, err := c.Do(context.Background(), "q", 1, func() (int, error) { return 99, nil })
	if err != nil || !cached || got != 7 {
		t.Fatalf("post-retry lookup = (%d, %v, %v), want cached 7", got, cached, err)
	}
}

// TestConcurrentMixedKeys hammers the cache with many goroutines over
// overlapping keys and versions — the -race net for the lock scheme.
func TestConcurrentMixedKeys(t *testing.T) {
	c := New[string, string](8)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("k%d", i%5)
				version := uint64(i % 3)
				want := fmt.Sprintf("%s@%d", key, version)
				got, _, err := c.Do(ctx, key, version, func() (string, error) {
					return want, nil
				})
				if err != nil {
					t.Error(err)
					return
				}
				if got != want {
					t.Errorf("Do(%s, %d) = %q, want %q (stale or cross-key value)", key, version, got, want)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
