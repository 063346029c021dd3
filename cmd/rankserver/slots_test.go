package main

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temporalrank"
)

// blockingBackend holds every Run until release is closed, tracking how
// many run at once.
type blockingBackend struct {
	inFlight, peak atomic.Int32
	entered        chan struct{}
	release        chan struct{}
}

func (b *blockingBackend) Run(context.Context, temporalrank.Query) (temporalrank.Answer, error) {
	n := b.inFlight.Add(1)
	for p := b.peak.Load(); n > p && !b.peak.CompareAndSwap(p, n); p = b.peak.Load() {
	}
	b.entered <- struct{}{}
	<-b.release
	b.inFlight.Add(-1)
	return temporalrank.Answer{Method: temporalrank.MethodReference, Exact: true}, nil
}

func (b *blockingBackend) Append(int, float64, float64) error { return nil }

func (b *blockingBackend) Score(int, float64, float64) (float64, error) { return 0, nil }

func (b *blockingBackend) PrimaryMethod(int) temporalrank.Method {
	return temporalrank.MethodReference
}

func (b *blockingBackend) NumSeries() int { return 10 }

// TestQuerySlotsCapInFlight checks the -workers semaphore: no more than
// workers /query calls reach the backend at once, the rest wait for a
// slot, and a waiting request whose context ends returns its context
// error without running.
func TestQuerySlotsCapInFlight(t *testing.T) {
	const workers, requests = 2, 5
	b := &blockingBackend{entered: make(chan struct{}, requests), release: make(chan struct{})}
	srv := newServer(b, workers, 0)
	ts := httptest.NewServer(srv)
	defer ts.Close()
	// Released before ts.Close waits out the blocked requests, also when
	// the test fails early.
	release := sync.OnceFunc(func() { close(b.release) })
	defer release()

	var wg sync.WaitGroup
	codes := make(chan int, requests)
	for i := 0; i < requests; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Get(ts.URL + "/query?k=1&t1=0&t2=1")
			if err != nil {
				codes <- 0
				return
			}
			resp.Body.Close()
			codes <- resp.StatusCode
		}()
	}
	for i := 0; i < workers; i++ {
		<-b.entered
	}
	// Give the queued requests time to (wrongly) slip past the cap.
	time.Sleep(50 * time.Millisecond)
	if n := b.inFlight.Load(); n != workers {
		t.Fatalf("%d queries in the backend, want %d", n, workers)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := srv.runQuery(ctx, temporalrank.SumQuery(1, 0, 1)); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("queued query with an expired deadline: got %v, want DeadlineExceeded", err)
	}

	release()
	wg.Wait()
	close(codes)
	for code := range codes {
		if code != http.StatusOK {
			t.Fatalf("/query status %d, want 200", code)
		}
	}
	if p := b.peak.Load(); p != workers {
		t.Fatalf("peak of %d queries in the backend, want %d", p, workers)
	}
	// The /stats counters saw every request, the expired one as an error.
	if q, e, busy := srv.queries.Load(), srv.queryErrors.Load(), srv.busy.Load(); q != requests+1 || e != 1 || busy != 0 {
		t.Fatalf("counters = %d queries, %d errors, %d busy; want %d, 1, 0", q, e, busy, requests+1)
	}
}
