package remote

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"temporalrank/internal/trerr"
)

// startServer brings up a Server on an ephemeral loopback listener and
// returns it with its address; cleanup closes everything.
func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	srv := NewServer(0)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return srv, ln.Addr().String()
}

type echoReq struct {
	Text string
	N    int
}

func TestUnaryRoundTrip(t *testing.T) {
	srv, addr := startServer(t)
	srv.Handle("echo", func(ctx context.Context, req []byte) (any, error) {
		var in echoReq
		if err := decodeBody(req, &in); err != nil {
			return nil, err
		}
		in.N++
		return in, nil
	})
	c := NewClient(ClientOptions{})
	defer c.Close()

	var out echoReq
	if err := c.Call(context.Background(), addr, "echo", echoReq{Text: "hi", N: 41}, &out); err != nil {
		t.Fatalf("call: %v", err)
	}
	if out.Text != "hi" || out.N != 42 {
		t.Fatalf("got %+v, want {hi 42}", out)
	}
}

func TestSentinelErrorsCrossTheWire(t *testing.T) {
	srv, addr := startServer(t)
	srv.Handle("fail", func(ctx context.Context, req []byte) (any, error) {
		return nil, fmt.Errorf("series 9 of 4: %w", trerr.ErrUnknownSeries)
	})
	srv.Handle("unavail", func(ctx context.Context, req []byte) (any, error) {
		return nil, trerr.ErrShardUnavailable
	})
	c := NewClient(ClientOptions{})
	defer c.Close()

	err := c.Call(context.Background(), addr, "fail", nil, nil)
	if !errors.Is(err, trerr.ErrUnknownSeries) {
		t.Fatalf("errors.Is(err, ErrUnknownSeries) = false; err = %v", err)
	}
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("remote application error does not unwrap to *Error: %v", err)
	}
	if ae.Code != "unknown_series" {
		t.Fatalf("code = %q, want unknown_series", ae.Code)
	}
	if Retryable(err) {
		t.Fatal("application error classified retryable")
	}

	if err := c.Call(context.Background(), addr, "unavail", nil, nil); !errors.Is(err, trerr.ErrShardUnavailable) {
		t.Fatalf("errors.Is(err, ErrShardUnavailable) = false; err = %v", err)
	}
}

func TestUnknownMethod(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient(ClientOptions{})
	defer c.Close()
	err := c.Call(context.Background(), addr, "nope", nil, nil)
	if err == nil {
		t.Fatal("unknown method succeeded")
	}
	var ae *Error
	if !errors.As(err, &ae) {
		t.Fatalf("unknown-method error is not an application error: %v", err)
	}
}

func TestDeadlinePropagatesToHandler(t *testing.T) {
	srv, addr := startServer(t)
	release := make(chan struct{})
	srv.Handle("slow", func(ctx context.Context, req []byte) (any, error) {
		defer close(release)
		select {
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-time.After(5 * time.Second):
			return nil, nil
		}
	})
	c := NewClient(ClientOptions{})
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	start := time.Now()
	err := c.Call(ctx, addr, "slow", nil, nil)
	if err == nil {
		t.Fatal("deadline-bound call succeeded")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("want DeadlineExceeded, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("call blocked %v past its 50ms deadline", elapsed)
	}
	select {
	case <-release:
	case <-time.After(2 * time.Second):
		t.Fatal("handler did not observe the propagated deadline")
	}
}

func TestCancelUnblocksCall(t *testing.T) {
	srv, addr := startServer(t)
	srv.Handle("hang", func(ctx context.Context, req []byte) (any, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c := NewClient(ClientOptions{})
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond)
		cancel()
	}()
	err := c.Call(ctx, addr, "hang", nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want Canceled, got %v", err)
	}
	if Retryable(err) {
		t.Fatal("cancellation classified retryable")
	}
}

func TestRetryOnTransportFailure(t *testing.T) {
	// A listener that tears down the first two connections before any
	// response, then serves normally.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	srv := NewServer(0)
	defer srv.Close()
	var calls atomic.Int32
	srv.Handle("flaky", func(ctx context.Context, req []byte) (any, error) {
		calls.Add(1)
		return nil, nil
	})
	var accepted atomic.Int32
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			if accepted.Add(1) <= 2 {
				nc.Close()
				continue
			}
			go srv.serveConn(nc)
		}
	}()

	c := NewClient(ClientOptions{})
	defer c.Close()
	if err := c.Call(context.Background(), ln.Addr().String(), "flaky", nil, nil); err != nil {
		t.Fatalf("call after retries: %v", err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("handler ran %d times, want 1", got)
	}

	// CallOnce must not retry: a fresh client (empty pool) dials, the
	// listener tears the connection, and the failure surfaces directly.
	accepted.Store(0)
	c2 := NewClient(ClientOptions{})
	defer c2.Close()
	if err := c2.CallOnce(context.Background(), ln.Addr().String(), "flaky", nil, nil); err == nil {
		t.Fatal("CallOnce succeeded despite torn connection")
	}
}

func TestStreaming(t *testing.T) {
	srv, addr := startServer(t)
	payload := bytes.Repeat([]byte("0123456789abcdef"), 64<<10) // 1 MiB, spans multiple chunks
	srv.HandleStream("blob", func(ctx context.Context, req []byte, w io.Writer) error {
		_, err := w.Write(payload)
		return err
	})
	srv.HandleStream("midfail", func(ctx context.Context, req []byte, w io.Writer) error {
		if _, err := w.Write([]byte("partial")); err != nil {
			return err
		}
		return fmt.Errorf("disk gone: %w", trerr.ErrBadSnapshot)
	})
	c := NewClient(ClientOptions{})
	defer c.Close()

	rc, err := c.CallStream(context.Background(), addr, "blob", nil)
	if err != nil {
		t.Fatalf("open stream: %v", err)
	}
	got, err := io.ReadAll(rc)
	if err != nil {
		t.Fatalf("read stream: %v", err)
	}
	rc.Close()
	if !bytes.Equal(got, payload) {
		t.Fatalf("stream mismatch: got %d bytes, want %d", len(got), len(payload))
	}

	// A mid-stream handler failure must surface typed, not as silent EOF.
	rc, err = c.CallStream(context.Background(), addr, "midfail", nil)
	if err != nil {
		t.Fatalf("open midfail stream: %v", err)
	}
	_, err = io.ReadAll(rc)
	rc.Close()
	if !errors.Is(err, trerr.ErrBadSnapshot) {
		t.Fatalf("mid-stream failure: errors.Is(err, ErrBadSnapshot) = false; err = %v", err)
	}
}

func TestConnectionPoolReuse(t *testing.T) {
	srv, addr := startServer(t)
	srv.Handle("ping", func(ctx context.Context, req []byte) (any, error) { return nil, nil })
	c := NewClient(ClientOptions{})
	defer c.Close()

	for i := 0; i < 5; i++ {
		if err := c.Call(context.Background(), addr, "ping", nil, nil); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	srv.mu.Lock()
	open := len(srv.conns)
	srv.mu.Unlock()
	if open != 1 {
		t.Fatalf("5 sequential calls used %d connections, want 1 (pooling broken)", open)
	}
}

// TestCanceledCallDoesNotPoisonPool is the regression test for a
// pooled-connection race: a call that succeeded re-pooled its
// connection while its cancellation watcher was still armed, so a
// cancel arriving just after re-pool forced a past deadline onto a
// conn another call now owned — which then failed with a bogus
// transport error. Healthy calls sharing a client with canceled ones
// must never see transport failures.
func TestCanceledCallDoesNotPoisonPool(t *testing.T) {
	srv, addr := startServer(t)
	srv.Handle("ping", func(ctx context.Context, req []byte) (any, error) { return nil, nil })
	c := NewClient(ClientOptions{})
	defer c.Close()

	const iters = 200
	var wg sync.WaitGroup
	failures := make(chan error, iters)
	wg.Add(2)
	go func() {
		// Canceler: each call succeeds, then its context is canceled
		// immediately — the window where a late watcher used to fire.
		defer wg.Done()
		for i := 0; i < iters; i++ {
			ctx, cancel := context.WithCancel(context.Background())
			_ = c.Call(ctx, addr, "ping", nil, nil)
			cancel()
		}
	}()
	go func() {
		// Victim: plain calls on the same pool must all succeed.
		defer wg.Done()
		for i := 0; i < iters; i++ {
			if err := c.CallOnce(context.Background(), addr, "ping", nil, nil); err != nil {
				failures <- err
				return
			}
		}
	}()
	wg.Wait()
	close(failures)
	for err := range failures {
		t.Fatalf("healthy call failed alongside canceled calls: %v", err)
	}
}

func TestServerCloseUnblocksHandlers(t *testing.T) {
	srv, addr := startServer(t)
	entered := make(chan struct{})
	srv.Handle("wait", func(ctx context.Context, req []byte) (any, error) {
		close(entered)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	c := NewClient(ClientOptions{})
	defer c.Close()

	done := make(chan error, 1)
	go func() { done <- c.Call(context.Background(), addr, "wait", nil, nil) }()
	<-entered
	if err := srv.Close(); err != nil {
		t.Fatalf("server close: %v", err)
	}
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("call succeeded after server close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("call did not unblock after server close")
	}
}
