package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// PoolOptions tunes a per-peer connection pool. The zero value picks sane
// defaults: 4 connections and no per-call deadline. Dials are fixed: each is
// bounded by dialTimeout and a failed one is retried dialRetries times,
// dialBackoff apart (doubled each retry).
type PoolOptions struct {
	Size        int           // max concurrent connections to the peer (default 4)
	CallTimeout time.Duration // per-call I/O deadline (0 = none)
	Dialer      DialFunc      // raw stream opener (nil = TCP); fault-injection hook

	// Observability (all optional). Peer labels this pool's metric series and
	// RPC spans (defaults to the dialed address); Tracer opens a child span
	// per call attempt on traced requests; Registry gets the peer's health
	// counters and RPC latency histogram, which count every attempt, traced
	// or not. The series belong to the registry, keyed by peer: every pool to
	// that peer on the registry adds to them, so they sum a caller's pools
	// and pools recreated after a restart.
	Peer     string
	Tracer   *obs.Tracer
	Registry *obs.Registry
}

// A pool's dial policy.
const (
	dialTimeout = 5 * time.Second
	dialRetries = 1
	dialBackoff = 25 * time.Millisecond
)

// Pool is a bounded pool of framed connections to one peer, so that
// concurrent fan-out is not serialized on a single in-flight socket.
// Connections are dialed lazily, reused when idle, and discarded on
// transport failure; a call that lands on stale cached connections (the
// peer restarted) drains them and is retried over a fresh dial. Calls
// beyond Size queue for a free connection slot. Safe for concurrent use.
type Pool struct {
	addr    string
	opts    PoolOptions
	slots   chan struct{}
	retries atomic.Int64 // this pool's own, for Retries

	dials, reuses, staleDrains, retried *obs.Counter
	openConns                           *obs.Gauge
	latency                             *obs.Histogram

	mu     sync.Mutex
	idle   []*Conn
	closed bool
}

// NewPool builds a pool for one peer address. Nothing is dialed until the
// first Call.
func NewPool(addr string, opts PoolOptions) *Pool {
	if opts.Size <= 0 {
		opts.Size = 4
	}
	if opts.Peer == "" {
		opts.Peer = addr
	}
	// A nil registry hands out unregistered instruments: counts nobody reads.
	reg, peer := opts.Registry, opts.Peer
	p := &Pool{
		addr:        addr,
		opts:        opts,
		slots:       make(chan struct{}, opts.Size),
		dials:       reg.Counter("dvdc_pool_dials_total", "peer", peer),
		reuses:      reg.Counter("dvdc_pool_reuses_total", "peer", peer),
		staleDrains: reg.Counter("dvdc_pool_stale_drains_total", "peer", peer),
		retried:     reg.Counter("dvdc_pool_retries_total", "peer", peer),
		openConns:   reg.Gauge("dvdc_pool_open_conns", "peer", peer),
	}
	if reg != nil {
		p.latency = reg.Histogram("dvdc_rpc_latency_seconds", obs.LatencyBuckets(), "peer", peer)
	}
	return p
}

// Addr returns the peer address.
func (p *Pool) Addr() string { return p.addr }

// Retries returns the cumulative count of in-call retries and re-dial
// attempts (a health signal: a flapping peer drives it up).
func (p *Pool) Retries() int64 { return p.retries.Load() }

// retry counts one retry or re-dial, in the pool and in the peer's series.
func (p *Pool) retry() {
	p.retries.Add(1)
	p.retried.Inc()
}

// closeConn closes a pool-owned connection, keeping the open-conns gauge
// honest.
func (p *Pool) closeConn(c *Conn) {
	p.openConns.Add(-1)
	c.Close()
}

// Call sends one request and returns its reply in a message of its own: the
// control plane's form of CallInto.
func (p *Pool) Call(req *wire.Message) (*wire.Message, error) {
	resp := new(wire.Message)
	if err := p.CallInto(req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}

// CallInto sends one request and waits for the reply, decoded into resp,
// which the caller owns (a caller that sends many requests reuses one),
// checking a connection out of the pool (dialing if none is idle). On a
// transport failure over a reused connection the call discards it and tries
// again — the peer may have restarted on the same address, leaving every
// pooled connection stale — with at most one retry over a fresh dial.
// Timeouts are not retried: a peer that blew the call deadline once is
// stalled, and retrying would double the caller's wait.
func (p *Pool) CallInto(req, resp *wire.Message) error {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return fmt.Errorf("transport: pool for %s is closed", p.addr)
	}
	p.slots <- struct{}{}
	defer func() { <-p.slots }()
	// Failures on reused connections do not consume the retry budget: after a
	// peer restart every idle connection in the pool is stale, and a call must
	// be able to drain them all (they are discarded as they fail, so this is
	// bounded by Size) before its one fresh-dial retry. Counting stale-conn
	// failures against the budget made the second stale connection fatal.
	freshFailures := 0
	for attempt := 0; attempt <= p.opts.Size+1; attempt++ {
		// Traced requests get one child span per attempt, from checkout (a
		// fresh connection's dial included, so a refused dial is an attempt
		// too) to the reply. The message is shallow-copied before re-stamping
		// Span: callers (node fan-out) may share one request across
		// concurrent peers, so the original must not be written to.
		m := req
		var span *obs.Active
		if p.opts.Tracer != nil && req.Trace != 0 {
			span = p.opts.Tracer.Child(obs.SpanContext{Trace: req.Trace, Span: req.Span}, "rpc "+req.Type.String(), "")
			if span != nil {
				span.SetAttr("peer", p.opts.Peer)
				if attempt > 0 {
					span.SetAttr("attempt", strconv.Itoa(attempt))
				}
				cp := *req
				cp.Span = span.ID()
				m = &cp
			}
		}
		start := time.Now()
		c, reused, err := p.get()
		if err == nil {
			err = c.CallInto(m, resp)
		}
		if p.latency != nil {
			p.latency.Observe(time.Since(start).Seconds())
		}
		span.FinishErr(err)
		if c == nil {
			return err // no connection: the dial already retried
		}
		if err == nil {
			p.put(c)
			return nil
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			// The handler answered (with an error); the stream is in sync.
			p.put(c)
			return err
		}
		p.closeConn(c)
		if reused {
			p.staleDrains.Inc()
		}
		// Timeouts are never retried. A reused (possibly stale) connection is
		// always worth retrying; a fresh one only when the failure is stream
		// corruption: a mangled frame (wire.ErrFrame) or an abruptly cut
		// stream means the *connection* failed the call, not the caller.
		// Without that, a corrupted first call on a brand-new pool surfaces
		// as a caller error although a clean retry would have succeeded. One
		// fresh-dial failure is the budget — the second means the peer itself
		// is sick, not the connection.
		if isTimeout(err) || !(reused || wire.IsDecodeErr(err) || isAbruptClose(err)) {
			return err
		}
		if !reused {
			freshFailures++
			if freshFailures > 1 {
				return err
			}
		}
		p.retry()
	}
	return fmt.Errorf("transport: call to %s exhausted retry budget", p.addr)
}

// get checks out an idle connection (reused=true) or dials a fresh one.
func (p *Pool) get() (c *Conn, reused bool, err error) {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil, false, fmt.Errorf("transport: pool for %s is closed", p.addr)
	}
	if n := len(p.idle); n > 0 {
		c = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		p.reuses.Inc()
		return c, true, nil
	}
	p.mu.Unlock()
	c, err = p.dial()
	return c, false, err
}

// dial connects with bounded retry and exponential backoff.
func (p *Pool) dial() (*Conn, error) {
	backoff := dialBackoff
	var lastErr error
	for i := 0; i <= dialRetries; i++ {
		if i > 0 {
			p.retry()
			time.Sleep(backoff)
			backoff *= 2
		}
		c, err := DialWith(p.addr, dialTimeout, p.opts.Dialer)
		if err == nil {
			if p.opts.CallTimeout > 0 {
				c.SetTimeout(p.opts.CallTimeout)
			}
			p.dials.Inc()
			p.openConns.Add(1)
			return c, nil
		}
		lastErr = err
	}
	return nil, lastErr
}

// put returns a healthy connection to the idle list (closing it if the pool
// has shut down or already holds enough spares).
func (p *Pool) put(c *Conn) {
	p.mu.Lock()
	if p.closed || len(p.idle) >= p.opts.Size {
		p.mu.Unlock()
		p.closeConn(c)
		return
	}
	p.idle = append(p.idle, c)
	p.mu.Unlock()
}

// Close closes idle connections and rejects future calls. Connections
// currently checked out are closed as their calls complete.
func (p *Pool) Close() {
	p.mu.Lock()
	p.closed = true
	idle := p.idle
	p.idle = nil
	p.mu.Unlock()
	for _, c := range idle {
		p.closeConn(c)
	}
}

// isTimeout reports whether err is an I/O deadline expiry.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// isAbruptClose reports whether err is a mid-exchange stream cut: the peer
// (or a fault injector) severed the connection before the reply arrived.
// This happens to a fresh connection when the server rejects a corrupted
// request frame by dropping the conn, so it is retried like a stale one.
func isAbruptClose(err error) bool {
	return errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) ||
		errors.Is(err, syscall.ECONNRESET) || errors.Is(err, syscall.EPIPE)
}
