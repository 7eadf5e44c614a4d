package transport

import (
	"errors"
	"os"
	"syscall"
	"testing"
	"time"

	"dvdc/internal/wire"
)

// TestMemNetworkCarriesPools runs a server and a pool over one MemNetwork:
// calls round-trip, a closed listener refuses new dials, and a server
// restarted at the same address serves the pool's next call after its stale
// connection is drained.
func TestMemNetworkCarriesPools(t *testing.T) {
	mem := NewMemNetwork()
	echo := func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.MsgHelloOK, Epoch: req.Epoch, Payload: req.Payload}, nil
	}
	s, err := ListenWith("node0", echo, mem.Listen)
	if err != nil {
		t.Fatal(err)
	}
	if s.Addr() != "node0" {
		t.Fatalf("server bound %q, want node0", s.Addr())
	}
	if _, err := mem.Listen("node0"); !errors.Is(err, syscall.EADDRINUSE) {
		t.Fatalf("second listener on node0: %v, want EADDRINUSE", err)
	}
	p := NewPool("node0", PoolOptions{Dialer: mem.Dial})
	defer p.Close()
	resp, err := p.Call(&wire.Message{Type: wire.MsgHello, Epoch: 7, Payload: []byte("hi")})
	if err != nil || resp.Epoch != 7 || string(resp.Payload) != "hi" {
		t.Fatalf("call: %+v, %v", resp, err)
	}

	s.Close()
	if _, err := mem.Dial("node0", time.Second); !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("dial after close: %v, want ECONNREFUSED", err)
	}
	s, err = ListenWith("node0", echo, mem.Listen)
	if err != nil {
		t.Fatalf("listen again after close: %v", err)
	}
	defer s.Close()
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello, Epoch: 8}); err != nil {
		t.Fatalf("call after restart: %v", err)
	}
}

// TestMemDialRespectsTimeout dials a listener nobody accepts on: the dial
// gives up at its timeout with a deadline error, and an unbounded dial is
// refused once the listener closes.
func TestMemDialRespectsTimeout(t *testing.T) {
	mem := NewMemNetwork()
	ln, err := mem.Listen("idle")
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, err = mem.Dial("idle", 50*time.Millisecond)
	if !errors.Is(err, os.ErrDeadlineExceeded) || !isTimeout(err) {
		t.Fatalf("dial to a listener that never accepts: %v, want a timeout", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond || d > 2*time.Second {
		t.Fatalf("dial returned after %v, want about 50ms", d)
	}
	refused := make(chan error, 1)
	go func() {
		_, err := mem.Dial("idle", 0)
		refused <- err
	}()
	time.Sleep(10 * time.Millisecond)
	ln.Close()
	if err := <-refused; !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("waiting dial when the listener closed: %v, want ECONNREFUSED", err)
	}
}
