package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/wire"
)

// countingProxy forwards raw TCP to backend and counts accepted connections,
// so tests can observe how many times a client actually dialed.
func countingProxy(t *testing.T, backend string) (string, *atomic.Int64) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	var accepts atomic.Int64
	go func() {
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			b, err := net.Dial("tcp", backend)
			if err != nil {
				c.Close()
				continue
			}
			go func() {
				io.Copy(b, c) //nolint:errcheck
				b.(*net.TCPConn).CloseWrite()
			}()
			go func() {
				io.Copy(c, b) //nolint:errcheck
				c.(*net.TCPConn).CloseWrite()
			}()
		}
	}()
	return ln.Addr().String(), &accepts
}

// stallServer answers MsgHello immediately and blocks every other request
// until the test finishes.
func stallServer(t *testing.T) *Server {
	t.Helper()
	stall := make(chan struct{})
	s, err := Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		if req.Type == wire.MsgHello {
			return &wire.Message{Type: wire.MsgHelloOK}, nil
		}
		<-stall
		return nil, fmt.Errorf("stalled")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	t.Cleanup(func() { close(stall) }) // runs before s.Close (LIFO)
	return s
}

func TestPoolReusesIdleConnections(t *testing.T) {
	s := echoServer(t)
	addr, accepts := countingProxy(t, s.Addr())
	p := NewPool(addr, PoolOptions{})
	defer p.Close()
	for i := 0; i < 5; i++ {
		if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if n := accepts.Load(); n != 1 {
		t.Errorf("5 sequential calls dialed %d connections, want 1", n)
	}
	if p.Retries() != 0 {
		t.Errorf("retries = %d, want 0", p.Retries())
	}
}

func TestPoolFansOutConcurrently(t *testing.T) {
	// A handler that takes 50ms per request: 8 calls through a Size-4 pool
	// must overlap (well under the 400ms a single serialized connection
	// would need).
	s, err := Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		time.Sleep(50 * time.Millisecond)
		return &wire.Message{Type: wire.MsgHelloOK}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	p := NewPool(s.Addr(), PoolOptions{Size: 4})
	defer p.Close()
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Call(&wire.Message{Type: wire.MsgHello})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
	if d := time.Since(start); d > 350*time.Millisecond {
		t.Errorf("8 calls through a 4-wide pool took %v, want well under the 400ms serial cost", d)
	}
}

func TestPoolRedialsAfterServerRestart(t *testing.T) {
	s := echoServer(t)
	addr := s.Addr()
	p := NewPool(addr, PoolOptions{})
	defer p.Close()
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	// The daemon restarts on the same address; the pool's cached connection
	// is now stale.
	s.Close()
	s2, err := Listen(addr, func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.MsgHelloOK}, nil
	})
	if err != nil {
		t.Fatalf("restart on %s: %v", addr, err)
	}
	defer s2.Close()
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
	if p.Retries() == 0 {
		t.Error("expected the pool to record a retry over the stale connection")
	}
}

func TestPoolDoesNotRetryTimedOutCalls(t *testing.T) {
	s := stallServer(t)
	p := NewPool(s.Addr(), PoolOptions{CallTimeout: 100 * time.Millisecond})
	defer p.Close()
	// Prime the pool so the stalled call lands on a reused connection — the
	// case where a transport failure *would* be retried.
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err := p.Call(&wire.Message{Type: wire.MsgStep})
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("call against a stalled handler should fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if elapsed > 800*time.Millisecond {
		t.Errorf("timed-out call took %v; a retry would have doubled the wait", elapsed)
	}
	if p.Retries() != 0 {
		t.Errorf("retries = %d, want 0 (timeouts must not be retried)", p.Retries())
	}
}

func TestConnCallDeadline(t *testing.T) {
	s := stallServer(t)
	c, err := Dial(s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetTimeout(100 * time.Millisecond)
	start := time.Now()
	_, err = call(c, &wire.Message{Type: wire.MsgStep})
	if err == nil {
		t.Fatal("call against a stalled handler should fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("deadline took %v to fire", d)
	}
}

// fakeListener fails every Accept with a fixed sequence of errors (the last
// entry repeats), for driving acceptLoop's failure handling.
type fakeListener struct {
	mu      sync.Mutex
	accepts int
	errs    []error
}

func (f *fakeListener) Accept() (net.Conn, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.accepts++
	i := f.accepts - 1
	if i >= len(f.errs) {
		i = len(f.errs) - 1
	}
	return nil, f.errs[i]
}

func (f *fakeListener) count() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.accepts
}

func (f *fakeListener) Close() error   { return nil }
func (f *fakeListener) Addr() net.Addr { return &net.TCPAddr{IP: net.IPv4(127, 0, 0, 1)} }

// runAcceptLoop runs acceptLoop over a fake listener and reports whether it
// returned within the timeout.
func runAcceptLoop(t *testing.T, f *fakeListener, timeout time.Duration) bool {
	t.Helper()
	s := &Server{ln: f, handler: func(*wire.Message) (*wire.Message, error) { return nil, nil },
		conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	s.wg.Add(1)
	returned := make(chan struct{})
	go func() {
		s.acceptLoop()
		close(returned)
	}()
	select {
	case <-returned:
		return true
	case <-time.After(timeout):
		return false
	}
}

func TestAcceptLoopBacksOffThenStopsOnClosedListener(t *testing.T) {
	defer func(min, max time.Duration, n int) {
		acceptBackoffMin, acceptBackoffMax, maxAcceptFailures = min, max, n
	}(acceptBackoffMin, acceptBackoffMax, maxAcceptFailures)
	acceptBackoffMin, acceptBackoffMax, maxAcceptFailures = time.Millisecond, 4*time.Millisecond, 100

	transient := errors.New("transient accept failure")
	f := &fakeListener{errs: []error{transient, transient, net.ErrClosed}}
	if !runAcceptLoop(t, f, 2*time.Second) {
		t.Fatal("acceptLoop did not stop on a closed listener")
	}
	if got := f.count(); got != 3 {
		t.Errorf("accept called %d times, want 3 (two transient failures, then closed)", got)
	}
}

func TestAcceptLoopGivesUpOnPersistentFailure(t *testing.T) {
	defer func(min, max time.Duration, n int) {
		acceptBackoffMin, acceptBackoffMax, maxAcceptFailures = min, max, n
	}(acceptBackoffMin, acceptBackoffMax, maxAcceptFailures)
	acceptBackoffMin, acceptBackoffMax, maxAcceptFailures = time.Millisecond, 4*time.Millisecond, 6

	f := &fakeListener{errs: []error{errors.New("persistent accept failure")}}
	if !runAcceptLoop(t, f, 2*time.Second) {
		t.Fatal("acceptLoop spun forever on a permanently broken listener")
	}
	if got := f.count(); got != 6 {
		t.Errorf("accept called %d times before giving up, want maxAcceptFailures=6", got)
	}
}
