package chaos

import (
	"fmt"
	"net"
	"syscall"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// Corruption target: the two high bytes of the frame's 4-byte little-endian
// length prefix are forced to 0xFF, making the declared length exceed
// wire.MaxFrame (256 MiB) so the receiver's ReadFrame fails with a typed
// ErrFrame no matter how large the real frame is. Mangling interior body
// bytes instead could decode into a silently *wrong* message (the wire format
// carries no checksum), which would poison the soak harness's invariants;
// an over-limit length prefix is corruption that is always detected.

// faultConn wraps a real connection with one pair's fault stream. Faults are
// decided once per outbound frame, in ObserveFrame, which wire.WriteFrame
// calls before the frame's first byte; Read and Write only enforce partitions
// and carry out a pending corruption. Conn methods are called under the
// transport layer's own serialization (one in-flight exchange per conn), so
// the pending flag needs no lock of its own.
type faultConn struct {
	net.Conn
	inj     *Injector
	pair    Pair
	corrupt bool // mangle the length prefix the next Write begins with
}

func newFaultConn(c net.Conn, inj *Injector, p Pair) *faultConn {
	return &faultConn{Conn: c, inj: inj, pair: p}
}

// errSevered builds the error for chaos-severed traffic. It wraps
// ECONNRESET so transport.Pool classifies it exactly like a real peer reset:
// a connection fault, retriable once over a fresh dial.
func (c *faultConn) errSevered(what string) error {
	return fmt.Errorf("chaos: %s on pair %s: %w", what, c.pair, syscall.ECONNRESET)
}

// severIfPartitioned closes a partitioned pair's conn and returns its error.
func (c *faultConn) severIfPartitioned(op string) error {
	if !c.inj.Partitioned(c.pair) {
		return nil
	}
	c.Conn.Close()
	return c.errSevered("partitioned " + op)
}

// Read implements net.Conn; a partitioned pair dies on its next read.
func (c *faultConn) Read(b []byte) (int, error) {
	if err := c.severIfPartitioned("read"); err != nil {
		return 0, err
	}
	return c.Conn.Read(b)
}

// Write implements net.Conn. A frame's first Write begins with its length
// prefix, so a corruption ObserveFrame decided lands on that Write.
func (c *faultConn) Write(b []byte) (int, error) {
	if err := c.severIfPartitioned("write"); err != nil {
		return 0, err
	}
	if c.corrupt {
		c.corrupt = false
		mangled := append([]byte(nil), b...)
		mangled[2], mangled[3] = 0xFF, 0xFF
		return c.Conn.Write(mangled)
	}
	return c.Conn.Write(b)
}

// ObserveFrame implements wire.FrameObserver: it decides the frame's one
// fault before WriteFrame writes any of it.
func (c *faultConn) ObserveFrame(m wire.Message, frameLen int) error {
	if err := c.severIfPartitioned("write"); err != nil {
		return err
	}
	// A standing SlowNode delay stretches every bulk frame queued toward the
	// slow node's data-plane ingest; control frames pass untouched. It is not
	// a frameFault decision: it applies even while probabilistic chaos is
	// paused, and it is never recorded per frame (the fault log got exactly
	// one entry when SlowNode was called).
	if m.Type.Bulk() {
		if d := c.inj.SlowDelay(c.pair); d > 0 {
			time.Sleep(d)
		}
	}
	d := c.inj.frameFault(c.pair, frameLen, m.Type)
	if d.kind != 0 {
		c.traceFault(obs.SpanContext{Trace: m.Trace, Span: m.Span}, d)
	}
	switch d.kind {
	case Drop:
		c.Conn.Close()
		return c.errSevered("dropped frame")
	case Delay:
		time.Sleep(d.delay)
	case Corrupt:
		c.corrupt = true
	}
	return nil
}

// traceFault pins a fired fault onto the trace of the frame it hit, as a
// child of the exact RPC attempt (the pool re-stamps Span per attempt).
// Untraced frames (trace id 0) are dropped by the tracer.
func (c *faultConn) traceFault(ctx obs.SpanContext, d decision) {
	tr := c.inj.Tracer()
	if tr == nil {
		return
	}
	kv := []string{"pair", c.pair.String()}
	if d.armed {
		kv = append(kv, "armed", "true")
	}
	tr.Event(ctx, "chaos."+d.kind.String(), "chaos", kv...)
}
