package remote

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"time"
)

// ClientOptions has no fields: every client uses the constants below.
// It remains only because NewClient's callers outside this module
// still pass ClientOptions{}; it goes, with NewClient's argument, once
// they stop.
type ClientOptions struct{}

const (
	// dialTimeout bounds connection establishment.
	dialTimeout = 2 * time.Second
	// callTimeout is the per-call guard applied when the caller's
	// context carries no deadline of its own. It exists so a hung peer
	// can never pin a pooled connection forever.
	callTimeout = 10 * time.Second
	// maxIdlePerHost bounds pooled idle connections per address.
	maxIdlePerHost = 2
	// maxRetries is how many additional attempts Call makes after a
	// transport failure, so 3 attempts in all. Application errors and
	// context cancellation are never retried.
	maxRetries = 2
	// backoffBase and backoffMax shape the jittered exponential backoff
	// between retry attempts.
	backoffBase = 5 * time.Millisecond
	backoffMax  = 100 * time.Millisecond
)

// Client issues calls to remote servers with per-host connection
// pooling. It is safe for concurrent use; each in-flight call owns one
// connection exclusively (no multiplexing — concurrency is achieved by
// opening more connections, bounded by the peers' accept capacity).
type Client struct {
	mu     sync.Mutex
	idle   map[string][]*clientConn
	closed bool
}

// clientConn is one pooled TCP connection with its buffered endpoints.
type clientConn struct {
	nc net.Conn
	br *bufio.Reader
	bw *bufio.Writer
}

func (cc *clientConn) close() { _ = cc.nc.Close() }

// NewClient creates a client.
func NewClient(ClientOptions) *Client {
	return &Client{idle: make(map[string][]*clientConn)}
}

// Close drops every pooled connection. In-flight calls finish on their
// own connections; their connections are closed instead of re-pooled.
func (c *Client) Close() error {
	c.mu.Lock()
	idle := c.idle
	c.idle = make(map[string][]*clientConn)
	c.closed = true
	c.mu.Unlock()
	for _, conns := range idle {
		for _, cc := range conns {
			cc.close()
		}
	}
	return nil
}

// Call invokes method on addr, gob-encoding in as the argument and
// decoding the reply into out (out may be nil for calls without a
// reply body). Transport failures are retried up to maxRetries times with
// jittered exponential backoff; application errors (those that unwrap
// to *Error) and context cancellation are returned immediately.
func (c *Client) Call(ctx context.Context, addr, method string, in, out any) error {
	return c.do(ctx, addr, method, in, out, maxRetries)
}

// CallOnce is Call without retries — for non-idempotent methods
// (append) and for callers running their own failover loop (the
// router's replica reads), where a transparent retry would double-apply
// or double-count.
func (c *Client) CallOnce(ctx context.Context, addr, method string, in, out any) error {
	return c.do(ctx, addr, method, in, out, 0)
}

func (c *Client) do(ctx context.Context, addr, method string, in, out any, retries int) error {
	body, err := encodeBody(in)
	if err != nil {
		return err
	}
	for attempt := 0; ; attempt++ {
		err = c.roundTrip(ctx, addr, method, body, out)
		if err == nil || !Retryable(err) || attempt >= retries {
			return err
		}
		if berr := c.backoff(ctx, attempt); berr != nil {
			return fmt.Errorf("remote: %s %s: %w", addr, method, berr)
		}
	}
}

// Retryable reports whether err is a transport failure — one where the
// peer may simply be gone and a retry (or a different replica) can
// succeed. Application errors and context cancellation are final.
func Retryable(err error) bool {
	var ae *Error
	if errors.As(err, &ae) {
		return false
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return false
	}
	return true
}

// backoff sleeps the jittered exponential delay for attempt, aborting
// early when ctx is done.
func (c *Client) backoff(ctx context.Context, attempt int) error {
	d := backoffBase << attempt
	if d > backoffMax || d <= 0 {
		d = backoffMax
	}
	// Full jitter in [d/2, d): desynchronizes retry storms from many
	// clients that failed at the same instant.
	d = d/2 + rand.N(d/2+1)
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-t.C:
		return nil
	}
}

// roundTrip performs one attempt of a unary call.
func (c *Client) roundTrip(ctx context.Context, addr, method string, body []byte, out any) error {
	cc, err := c.getConn(ctx, addr)
	if err != nil {
		return err
	}
	deadline, stop := c.armConn(ctx, cc)
	defer stop()
	resp, err := c.exchange(cc, request{Method: method, Deadline: deadline, Body: body})
	if err != nil {
		cc.close()
		if cerr := ctx.Err(); cerr != nil {
			return fmt.Errorf("remote: %s %s: %w", addr, method, cerr)
		}
		return err
	}
	if resp.More {
		// A streaming answer to a unary call: drain-impossible, drop it.
		cc.close()
		return fmt.Errorf("remote: %s %s: unexpected streaming response", addr, method)
	}
	// Disarm before re-pooling: once the conn is back in the pool
	// another call may own it, and a late watcher firing on this call's
	// cancellation would poison that call's IO with a forced deadline.
	stop()
	c.putConn(addr, cc)
	if resp.Code != "" {
		return decodeError(resp.Code, resp.Msg)
	}
	if out != nil {
		return decodeBody(resp.Body, out)
	}
	return nil
}

// CallStream invokes a streaming method and returns a reader over the
// raw response byte stream. The returned ReadCloser must be closed;
// closing after full consumption (io.EOF) re-pools the connection,
// closing early discards it. A mid-stream server failure surfaces as a
// typed error from Read (never a silent truncation). Dial-phase
// failures are retried like Call; once the first byte arrives the
// stream is not retried.
func (c *Client) CallStream(ctx context.Context, addr, method string, in any) (io.ReadCloser, error) {
	body, err := encodeBody(in)
	if err != nil {
		return nil, err
	}
	var rc io.ReadCloser
	for attempt := 0; ; attempt++ {
		rc, err = c.openStream(ctx, addr, request{Method: method, Body: body})
		if err == nil || !Retryable(err) || attempt >= maxRetries {
			return rc, err
		}
		if berr := c.backoff(ctx, attempt); berr != nil {
			return nil, fmt.Errorf("remote: %s %s: %w", addr, method, berr)
		}
	}
}

func (c *Client) openStream(ctx context.Context, addr string, req request) (io.ReadCloser, error) {
	cc, err := c.getConn(ctx, addr)
	if err != nil {
		return nil, err
	}
	deadline, stop := c.armConn(ctx, cc)
	req.Deadline = deadline
	first, err := c.exchange(cc, req)
	if err != nil {
		stop()
		cc.close()
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("remote: %s %s: %w", addr, req.Method, cerr)
		}
		return nil, err
	}
	if !first.More && first.Code != "" {
		stop()
		c.putConn(addr, cc)
		return nil, decodeError(first.Code, first.Msg)
	}
	return &streamReader{c: c, addr: addr, cc: cc, stop: stop, cur: first}, nil
}

// exchange writes one request frame and reads one response frame on an
// armed connection.
func (c *Client) exchange(cc *clientConn, req request) (response, error) {
	var resp response
	if err := writeFrame(cc.bw, DefaultMaxFrame, &req); err != nil {
		return resp, err
	}
	if err := cc.bw.Flush(); err != nil {
		return resp, fmt.Errorf("remote: flush request: %w", err)
	}
	err := readFrame(cc.br, DefaultMaxFrame, &resp)
	return resp, err
}

// armConn applies the call deadline to the connection and spawns the
// context watcher that unblocks IO on cancellation. It returns the
// deadline to transmit to the server and an idempotent stop function
// that must run when the call's IO is over — and strictly BEFORE the
// connection is re-pooled, since after putConn another call owns the
// conn and a late deadline write would poison its IO.
func (c *Client) armConn(ctx context.Context, cc *clientConn) (int64, func()) {
	deadline, ok := ctx.Deadline()
	if !ok || deadline.After(time.Now().Add(callTimeout)) {
		deadline = time.Now().Add(callTimeout)
	}
	_ = cc.nc.SetDeadline(deadline)
	wire := deadline.UnixNano()
	if ctx.Done() == nil {
		var once sync.Once
		return wire, func() {
			once.Do(func() { _ = cc.nc.SetDeadline(time.Time{}) })
		}
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-ctx.Done():
			// Force in-flight reads/writes to fail now.
			_ = cc.nc.SetDeadline(time.Unix(1, 0))
		case <-done:
		}
	}()
	var once sync.Once
	return wire, func() {
		once.Do(func() {
			close(done)
			// Wait the watcher out: one that already committed to the
			// ctx.Done branch would otherwise stamp its forced deadline
			// AFTER the clear below — poisoning the conn while it sits
			// idle in the pool, so the next call on it fails instantly
			// with a timeout that Retryable() treats as a dead peer.
			<-exited
			_ = cc.nc.SetDeadline(time.Time{})
		})
	}
}

func (c *Client) getConn(ctx context.Context, addr string) (*clientConn, error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, fmt.Errorf("remote: client is closed")
	}
	if conns := c.idle[addr]; len(conns) > 0 {
		cc := conns[len(conns)-1]
		c.idle[addr] = conns[:len(conns)-1]
		c.mu.Unlock()
		return cc, nil
	}
	c.mu.Unlock()
	d := net.Dialer{Timeout: dialTimeout}
	nc, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote: dial %s: %w", addr, err)
	}
	if tc, ok := nc.(*net.TCPConn); ok {
		_ = tc.SetNoDelay(true)
	}
	return &clientConn{nc: nc, br: bufio.NewReader(nc), bw: bufio.NewWriter(nc)}, nil
}

func (c *Client) putConn(addr string, cc *clientConn) {
	c.mu.Lock()
	if c.closed || len(c.idle[addr]) >= maxIdlePerHost {
		c.mu.Unlock()
		cc.close()
		return
	}
	c.idle[addr] = append(c.idle[addr], cc)
	c.mu.Unlock()
}

// streamReader adapts the chunked response frames of a streaming call
// to io.Reader.
type streamReader struct {
	c    *Client
	addr string
	cc   *clientConn
	stop func()
	cur  response // frame being consumed; cur.Body drains first
	done bool     // final frame fully handled
	fail bool     // transport/app failure: connection not reusable
}

func (r *streamReader) Read(p []byte) (int, error) {
	for len(r.cur.Body) == 0 {
		if !r.cur.More {
			r.done = true
			if r.cur.Code != "" {
				r.fail = true
				return 0, decodeError(r.cur.Code, r.cur.Msg)
			}
			return 0, io.EOF
		}
		r.cur = response{}
		if err := readFrame(r.cc.br, DefaultMaxFrame, &r.cur); err != nil {
			r.fail = true
			return 0, err
		}
	}
	n := copy(p, r.cur.Body)
	r.cur.Body = r.cur.Body[n:]
	return n, nil
}

// Close releases the stream's connection: back to the pool when the
// stream was fully consumed, closed otherwise (unread frames would
// poison the next call on it).
func (r *streamReader) Close() error {
	r.stop()
	if r.done && !r.fail && len(r.cur.Body) == 0 {
		r.c.putConn(r.addr, r.cc)
	} else {
		r.cc.close()
	}
	return nil
}
