// Package transport carries wire.Messages over TCP: a framed connection
// with single-in-flight request/response semantics, a per-peer connection
// pool for concurrent fan-out, and a server that runs one handler goroutine
// per accepted connection. The distributed DVDC runtime's coordinator-to-node
// and node-to-node traffic all rides on it.
package transport

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/wire"
)

// Conn is a framed connection. CallInto is safe for concurrent use; each call
// holds the connection for one request/response exchange.
type Conn struct {
	mu      sync.Mutex
	c       net.Conn
	r       *bufio.Reader
	segs    net.Buffers // a bulk request frame's scatter list (wire.WriteFrame)
	timeout time.Duration
}

// DialFunc opens the raw stream a framed connection runs over. nil means
// plain TCP (net.DialTimeout). Hooks — fault injection (internal/chaos),
// instrumented dials — substitute their own.
type DialFunc func(addr string, timeout time.Duration) (net.Conn, error)

// ListenFunc opens the listener a Server accepts on. nil means plain TCP
// (net.Listen). Hooks wrap the returned listener to intercept accepted
// connections.
type ListenFunc func(addr string) (net.Listener, error)

// Dial connects to a runtime endpoint with the default 5s dial timeout.
func Dial(addr string) (*Conn, error) {
	return DialTimeout(addr, 5*time.Second)
}

// DialTimeout connects to a runtime endpoint, bounding the dial.
func DialTimeout(addr string, d time.Duration) (*Conn, error) {
	return DialWith(addr, d, nil)
}

// DialWith connects to a runtime endpoint over dial (nil = TCP), bounding
// the attempt.
func DialWith(addr string, d time.Duration, dial DialFunc) (*Conn, error) {
	if d <= 0 {
		d = 5 * time.Second
	}
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c, err := dial(addr, d)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return newConn(c), nil
}

// readerSize holds a control frame. Small on purpose: bufio reads a bulk payload
// straight into wire.ReadFrame's pooled buffer instead of staging it for a copy.
const readerSize = 4 << 10

func newConn(c net.Conn) *Conn {
	return &Conn{c: c, r: bufio.NewReaderSize(c, readerSize)}
}

// SetTimeout sets the per-call I/O deadline for subsequent Calls (0 disables
// it). A call that trips the deadline leaves the stream desynchronized — the
// reply may still be in flight — so the connection must be closed, not
// reused; Pool handles that automatically.
func (c *Conn) SetTimeout(d time.Duration) {
	c.mu.Lock()
	c.timeout = d
	c.mu.Unlock()
}

// CallInto sends a request and waits for its reply, decoded into resp, which
// the caller owns (its Payload included), bounded by the configured per-call
// timeout. A reply of type MsgError is converted into a *wire.RemoteError.
func (c *Conn) CallInto(req, resp *wire.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.timeout > 0 {
		c.c.SetDeadline(time.Now().Add(c.timeout)) //nolint:errcheck
		defer c.c.SetDeadline(time.Time{})         //nolint:errcheck
	}
	// Straight to the connection: a frame is one Write, or one writev with the
	// bulk payload sent from the caller's buffer (wire.WriteFrame).
	if err := wire.WriteFrame(c.c, req, &c.segs); err != nil {
		return err
	}
	if err := wire.ReadFrame(c.r, resp); err != nil {
		return err
	}
	return resp.AsError()
}

// Close shuts the connection down.
func (c *Conn) Close() error { return c.c.Close() }

// Handler serves one request and returns the reply. Returning an error sends
// a MsgError reply and keeps the connection open. The request is the
// connection's: every request it carries decodes into one message, valid
// until the handler returns, so a handler keeps no pointer to it. A handler
// may answer with req itself, rewritten into its reply, which then allocates
// nothing. The request payload is the pooled buffer wire.ReadFrame read it
// into; the server recycles it and the reply's once the reply is written
// (serveConn), so a handler keeps neither.
type Handler func(req *wire.Message) (*wire.Message, error)

// Server accepts framed connections and dispatches requests to a Handler.
type Server struct {
	ln      net.Listener
	handler Handler
	mu      sync.Mutex
	conns   map[net.Conn]struct{}
	done    chan struct{}
	closing sync.Once
	wg      sync.WaitGroup
}

// Listen starts a server on addr ("127.0.0.1:0" picks a free port).
func Listen(addr string, h Handler) (*Server, error) {
	return ListenWith(addr, h, nil)
}

// ListenWith starts a server on a listener opened by lf (nil = TCP). Fault
// injection layers use it to wrap every accepted connection.
func ListenWith(addr string, h Handler, lf ListenFunc) (*Server, error) {
	if h == nil {
		return nil, fmt.Errorf("transport: nil handler")
	}
	if lf == nil {
		lf = func(addr string) (net.Listener, error) { return net.Listen("tcp", addr) }
	}
	ln, err := lf(addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, handler: h, conns: map[net.Conn]struct{}{}, done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the bound address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Accept-error backoff: start at acceptBackoffMin, double up to
// acceptBackoffMax, and give up after maxAcceptFailures consecutive errors —
// a listener that fails that long (fd exhaustion that never clears, a
// revoked socket) is permanently broken and spinning on it helps nobody.
// Vars, not consts, so tests can shrink the schedule.
var (
	acceptBackoffMin  = 10 * time.Millisecond
	acceptBackoffMax  = time.Second
	maxAcceptFailures = 12
)

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	backoff := acceptBackoffMin
	failures := 0
	for {
		c, err := s.ln.Accept()
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return // listener closed out from under us: nothing to retry
			}
			failures++
			if failures >= maxAcceptFailures {
				return // persistently broken listener: stop cleanly
			}
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > acceptBackoffMax {
				backoff = acceptBackoffMax
			}
			continue
		}
		failures, backoff = 0, acceptBackoffMin
		s.mu.Lock()
		s.conns[c] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(c)
	}
}

func (s *Server) serveConn(c net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
	}()
	r := bufio.NewReaderSize(c, readerSize)
	var (
		req  wire.Message // every request decodes here (Handler)
		segs net.Buffers  // a bulk reply frame's scatter list
	)
	for {
		if err := wire.ReadFrame(r, &req); err != nil {
			return // connection closed or corrupted; drop it
		}
		typ, trace, span, payload := req.Type, req.Trace, req.Span, req.Payload
		resp, herr := s.handler(&req)
		if herr != nil {
			resp = wire.Errorf("%v", herr)
		}
		if resp == nil {
			resp = wire.Errorf("transport: handler returned no reply for %v", typ)
		}
		// Replies carry the request's trace context back so fault injection on
		// the return path can still be pinned to the originating RPC span.
		if resp.Trace == 0 {
			resp.Trace, resp.Span = trace, span
		}
		if err := wire.WriteFrame(c, resp, &segs); err != nil {
			return
		}
		// The exchange is over and both payloads go back to the buffer pool:
		// the request's was read into it (wire.ReadFrame), and the reply's is
		// the server's once returned — a buffer the handler gives up (today
		// only the runtime's read-chunk replies, a pooled chunk frame each) or
		// a slice of the request's payload, recognised and released once.
		if !sameBacking(resp.Payload, payload) {
			bufpool.Put(resp.Payload)
		}
		bufpool.Put(payload)
	}
}

// sameBacking reports whether a and b are slices of one backing array: plain
// reslicing moves a slice's start, never the end of its capacity.
func sameBacking(a, b []byte) bool {
	return cap(a) > 0 && cap(b) > 0 && &a[:cap(a)][cap(a)-1] == &b[:cap(b)][cap(b)-1]
}

// Close stops accepting, closes all connections, and waits for handlers.
// It is idempotent.
func (s *Server) Close() error {
	var err error
	s.closing.Do(func() {
		close(s.done)
		err = s.ln.Close()
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		s.wg.Wait()
	})
	return err
}
