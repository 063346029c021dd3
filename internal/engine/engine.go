// Package engine is the concurrent query layer over the public
// Querier interface: a worker pool that executes batches of
// temporalrank.Query values in parallel and reports per-query latency
// and IO. It is the serving-side counterpart of the paper's
// single-query cost model — the structures answer one query in O(...)
// IOs, and the engine keeps many such queries in flight against the
// same (read-safe) backend.
//
// The backend can be anything implementing temporalrank.Querier: a
// single Index, the brute-force DB, or a Planner routing across
// several indexes. Executor itself implements Querier, so pools
// compose with everything else that runs queries.
//
// cmd/rankserver mounts an Executor behind an HTTP API; tests drive it
// directly.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"temporalrank"
)

// Result pairs an Answer with its error — one element of a RunBatch.
type Result struct {
	Answer temporalrank.Answer
	Err    error
}

// Stats aggregates an executor's lifetime activity.
type Stats struct {
	Queries   uint64 // completed queries, including failed ones
	Errors    uint64 // completed queries that returned an error
	Busy      int64  // queries executing right now
	TotalTime time.Duration
}

type job struct {
	ctx  context.Context
	q    temporalrank.Query
	done func(Result)
}

// Executor is a fixed-size worker pool executing queries against one
// Querier backend. Create with NewQuerier, release with Close.
type Executor struct {
	backend temporalrank.Querier
	workers int
	jobs    chan job
	wg      sync.WaitGroup

	mu     sync.RWMutex
	closed bool

	queries atomic.Uint64
	errors  atomic.Uint64
	busy    atomic.Int64
	nanos   atomic.Int64
}

// Executor is itself a Querier: Run goes through the pool.
var _ temporalrank.Querier = (*Executor)(nil)

// NewQuerier starts an executor over any Querier backend — an Index, a
// Planner, or the brute-force DB — with the given number of workers
// (defaults to GOMAXPROCS when workers <= 0).
func NewQuerier(backend temporalrank.Querier, workers int) *Executor {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	e := &Executor{backend: backend, workers: workers, jobs: make(chan job)}
	for i := 0; i < workers; i++ {
		e.wg.Add(1)
		go func() {
			defer e.wg.Done()
			for j := range e.jobs {
				j.done(e.run(j))
			}
		}()
	}
	return e
}

// Workers returns the pool size.
func (e *Executor) Workers() int { return e.workers }

// run executes one job on the calling worker. A job whose context is
// already done is dropped without touching the backend, so a cancelled
// batch terminates promptly even when its jobs were already queued.
func (e *Executor) run(j job) Result {
	if err := j.ctx.Err(); err != nil {
		e.queries.Add(1)
		e.errors.Add(1)
		return Result{Err: err}
	}
	e.busy.Add(1)
	defer e.busy.Add(-1)
	start := time.Now()
	ans, err := e.backend.Run(j.ctx, j.q)
	elapsed := time.Since(start)
	e.queries.Add(1)
	if err != nil {
		e.errors.Add(1)
		// A failed Run returns a zero Answer; report the measured wall
		// time anyway so error-latency telemetry keeps working.
		if ans.Latency == 0 {
			ans.Latency = elapsed
		}
	}
	e.nanos.Add(int64(elapsed))
	return Result{Answer: ans, Err: err}
}

// submit hands a job to the pool, or fails fast when the executor is
// closed or the context is done.
func (e *Executor) submit(ctx context.Context, j job) error {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return fmt.Errorf("engine: executor is closed")
	}
	select {
	case e.jobs <- j:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Run implements temporalrank.Querier: one query through the pool,
// waiting for its answer. Cancellation covers the whole span — queue
// wait, execution start, and the wait for the response.
func (e *Executor) Run(ctx context.Context, q temporalrank.Query) (temporalrank.Answer, error) {
	out := make(chan Result, 1)
	err := e.submit(ctx, job{ctx: ctx, q: q, done: func(r Result) { out <- r }})
	if err != nil {
		return temporalrank.Answer{}, err
	}
	select {
	case r := <-out:
		return r.Answer, r.Err
	case <-ctx.Done():
		// The job may still run; its response is dropped.
		return temporalrank.Answer{}, ctx.Err()
	}
}

// RunBatch executes a batch, returning results in query order. All
// queries run through the worker pool, so up to Workers() of them
// proceed in parallel. A cancelled context fails the not-yet-submitted
// remainder with ctx.Err(), drops queued-but-unstarted jobs, and waits
// only for the at-most-Workers() queries already executing.
func (e *Executor) RunBatch(ctx context.Context, qs []temporalrank.Query) []Result {
	out := make([]Result, len(qs))
	var wg sync.WaitGroup
	for i := range qs {
		wg.Add(1)
		idx := i
		err := e.submit(ctx, job{ctx: ctx, q: qs[i], done: func(r Result) {
			out[idx] = r
			wg.Done()
		}})
		if err != nil {
			out[idx] = Result{Err: err}
			wg.Done()
		}
	}
	wg.Wait()
	return out
}

// Stats returns a snapshot of lifetime executor activity.
func (e *Executor) Stats() Stats {
	return Stats{
		Queries:   e.queries.Load(),
		Errors:    e.errors.Load(),
		Busy:      e.busy.Load(),
		TotalTime: time.Duration(e.nanos.Load()),
	}
}

// Close stops the workers after draining queued jobs. Safe to call
// more than once; Run/RunBatch after Close fail cleanly.
func (e *Executor) Close() {
	e.mu.Lock()
	if !e.closed {
		e.closed = true
		close(e.jobs)
	}
	e.mu.Unlock()
	e.wg.Wait()
}
