// Package scatter is the shared bounded fan-out primitive: run n tasks
// on at most w goroutines, stop early on the first error, and respect
// context cancellation. It is the concurrency core under the shard
// coordinator's scatter-gather and the parallel cluster builds —
// deliberately free of temporalrank imports so every layer can use it.
package scatter

import (
	"context"
	"sync"
	"sync/atomic"
)

// Run invokes fn(ctx, i) for every i in [0, n), keeping at most workers
// invocations in flight (workers <= 0 or > n means one per task). The
// caller's goroutine is one of the workers, so Run starts workers-1
// goroutines. The context passed to fn is derived from ctx and is
// cancelled as soon as any invocation fails, so cooperative tasks abort
// promptly; tasks not yet started are skipped once the context is done.
//
// Run returns after every started task has finished. The result is the
// first error to occur — a task failure or ctx's own error — and nil
// only when all n tasks succeeded (first-error-wins).
func Run(ctx context.Context, n, workers int, fn func(ctx context.Context, i int) error) error {
	if n <= 0 {
		return ctx.Err()
	}
	if workers <= 0 || workers > n {
		workers = n
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		wg    sync.WaitGroup
		once  sync.Once
		first error
		next  atomic.Int64
	)
	fail := func(err error) {
		once.Do(func() {
			first = err
			cancel()
		})
	}
	work := func() {
		for {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := ctx.Err(); err != nil {
				fail(err)
				return
			}
			if err := fn(ctx, i); err != nil {
				fail(err)
				return
			}
		}
	}
	wg.Add(workers - 1)
	for w := 1; w < workers; w++ {
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return first
}
