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
	// per call attempt on traced requests; Registry gets the pool's health
	// counters and a per-peer RPC latency histogram. Each attempt's outcome
	// is recorded once: as its span when traced, else as a Recorder flight
	// entry.
	Peer     string
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Recorder *obs.FlightRecorder
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
	retries atomic.Int64

	dials       atomic.Int64
	reuses      atomic.Int64
	staleDrains atomic.Int64
	openConns   atomic.Int64
	latency     *obs.Histogram

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
	p := &Pool{
		addr:  addr,
		opts:  opts,
		slots: make(chan struct{}, opts.Size),
	}
	if reg := opts.Registry; reg != nil {
		// Func instruments rebind on re-registration, so a pool recreated for
		// the same peer (a node restart) takes over its series cleanly.
		reg.CounterFunc("dvdc_pool_dials_total", func() float64 { return float64(p.dials.Load()) }, "peer", opts.Peer)
		reg.CounterFunc("dvdc_pool_reuses_total", func() float64 { return float64(p.reuses.Load()) }, "peer", opts.Peer)
		reg.CounterFunc("dvdc_pool_stale_drains_total", func() float64 { return float64(p.staleDrains.Load()) }, "peer", opts.Peer)
		reg.CounterFunc("dvdc_pool_retries_total", func() float64 { return float64(p.retries.Load()) }, "peer", opts.Peer)
		reg.GaugeFunc("dvdc_pool_open_conns", func() float64 { return float64(p.openConns.Load()) }, "peer", opts.Peer)
		p.latency = reg.Histogram("dvdc_rpc_latency_seconds", obs.LatencyBuckets(), "peer", opts.Peer)
	}
	return p
}

// Addr returns the peer address.
func (p *Pool) Addr() string { return p.addr }

// Retries returns the cumulative count of in-call retries and re-dial
// attempts (a health signal: a flapping peer drives it up).
func (p *Pool) Retries() int64 { return p.retries.Load() }

// PoolStats is a point-in-time snapshot of a pool's health counters.
type PoolStats struct {
	Peer        string
	Dials       int64 // fresh connections established
	Reuses      int64 // calls served over a pooled idle connection
	StaleDrains int64 // pooled connections discarded after failing a call
	Retries     int64 // in-call retries plus re-dial attempts
	OpenConns   int64 // connections currently alive (idle + checked out)
	Idle        int   // connections parked in the idle list right now
}

// Stats snapshots the pool's health counters.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	idle := len(p.idle)
	p.mu.Unlock()
	return PoolStats{
		Peer:        p.opts.Peer,
		Dials:       p.dials.Load(),
		Reuses:      p.reuses.Load(),
		StaleDrains: p.staleDrains.Load(),
		Retries:     p.retries.Load(),
		OpenConns:   p.openConns.Load(),
		Idle:        idle,
	}
}

// closeConn closes a pool-owned connection, keeping the open-conns gauge
// honest.
func (p *Pool) closeConn(c *Conn) {
	p.openConns.Add(-1)
	c.Close()
}

// Call sends one request and waits for the reply, checking a connection out
// of the pool (dialing if none is idle). On a transport failure over a
// reused connection the call discards it and tries again — the peer may have
// restarted on the same address, leaving every pooled connection stale — with
// at most one retry over a fresh dial. Timeouts are not retried: a peer that
// blew the call deadline once is stalled, and retrying would double the
// caller's wait.
func (p *Pool) Call(req *wire.Message) (*wire.Message, error) {
	p.mu.Lock()
	closed := p.closed
	p.mu.Unlock()
	if closed {
		return nil, fmt.Errorf("transport: pool for %s is closed", p.addr)
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
		c, reused, err := p.get()
		if err != nil {
			return nil, err
		}
		// Traced requests get one child span per attempt. The message is
		// shallow-copied before re-stamping Span: callers (node fan-out) may
		// share one request across concurrent peers, so the original must not
		// be written to.
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
		resp, err := c.Call(m)
		elapsed := time.Since(start)
		if p.latency != nil {
			p.latency.Observe(elapsed.Seconds())
		}
		if span != nil {
			span.FinishErr(err)
		} else {
			p.opts.Recorder.RPC(p.opts.Peer, req.Type.String(), elapsed, req.Trace, err)
		}
		if err == nil {
			p.put(c)
			return resp, nil
		}
		var remote *wire.RemoteError
		if errors.As(err, &remote) {
			// The handler answered (with an error); the stream is in sync.
			p.put(c)
			return nil, err
		}
		p.closeConn(c)
		if reused {
			p.staleDrains.Add(1)
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
			return nil, err
		}
		if !reused {
			freshFailures++
			if freshFailures > 1 {
				return nil, err
			}
		}
		p.retries.Add(1)
	}
	return nil, fmt.Errorf("transport: call to %s exhausted retry budget", p.addr)
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
		p.reuses.Add(1)
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
			p.retries.Add(1)
			time.Sleep(backoff)
			backoff *= 2
		}
		c, err := DialWith(p.addr, dialTimeout, p.opts.Dialer)
		if err == nil {
			if p.opts.CallTimeout > 0 {
				c.SetTimeout(p.opts.CallTimeout)
			}
			p.dials.Add(1)
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
