package scatter

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunAllTasks(t *testing.T) {
	const n = 100
	var done [n]atomic.Bool
	err := Run(context.Background(), n, 7, func(_ context.Context, i int) error {
		done[i].Store(true)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range done {
		if !done[i].Load() {
			t.Fatalf("task %d never ran", i)
		}
	}
}

func TestRunBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	err := Run(context.Background(), 50, workers, func(context.Context, int) error {
		c := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if c <= p || peak.CompareAndSwap(p, c) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Fatalf("peak concurrency %d > %d workers", p, workers)
	}
}

// TestRunFirstErrorWins: a failing task cancels the derived context, so
// running siblings see the cancellation and unstarted tasks are skipped.
func TestRunFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	err := Run(context.Background(), 1000, 2, func(ctx context.Context, i int) error {
		started.Add(1)
		if i == 0 {
			return boom
		}
		<-ctx.Done()
		return ctx.Err()
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the task error to win", err)
	}
	if s := started.Load(); s > 4 {
		t.Fatalf("%d tasks started after the failure, want the remainder skipped", s)
	}
}

func TestRunParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	err := Run(ctx, 1_000_000, 4, func(context.Context, int) error {
		ran.Add(1)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := ran.Load(); n >= 1_000_000 {
		t.Fatal("cancellation did not stop the scatter early")
	}
}

func TestRunEmptyAndDoneContext(t *testing.T) {
	if err := Run(context.Background(), 0, 4, nil); err != nil {
		t.Fatalf("n=0: %v", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := Run(ctx, 5, 2, func(context.Context, int) error {
		return fmt.Errorf("should not run")
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("done context: err = %v, want context.Canceled", err)
	}
}

// TestRunInlineSingleTask: with one task, fn runs on the caller's
// goroutine, so the test function's own frame is on fn's stack. On a
// goroutine Run started, the stack would end at Run's closure.
func TestRunInlineSingleTask(t *testing.T) {
	var stack string
	err := Run(context.Background(), 1, 4, func(context.Context, int) error {
		buf := make([]byte, 64<<10)
		stack = string(buf[:runtime.Stack(buf, false)])
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(stack, "scatter.TestRunInlineSingleTask(") {
		t.Fatalf("n=1 ran fn on another goroutine:\n%s", stack)
	}
}
