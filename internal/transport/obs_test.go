package transport

import (
	"strings"
	"testing"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// TestPoolStatsAndRegistry drives a pool through dial, reuse, and restart
// drain, and reads each step's counts off the pool's registry series, then
// checks their exposition and that a second pool to the peer adds to them.
func TestPoolStatsAndRegistry(t *testing.T) {
	s, err := Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.MsgHelloOK}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reg := obs.NewRegistry()
	p := NewPool(s.Addr(), PoolOptions{Peer: "node1", Registry: reg, CallTimeout: 2 * time.Second})
	defer p.Close()

	for i := 0; i < 3; i++ {
		if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
			t.Fatal(err)
		}
	}
	series := func() map[string]float64 {
		out := map[string]float64{}
		for _, name := range []string{"dvdc_pool_dials_total", "dvdc_pool_reuses_total", "dvdc_pool_stale_drains_total", "dvdc_pool_retries_total", "dvdc_pool_open_conns"} {
			out[name], _ = reg.Value(name, "peer", "node1")
		}
		return out
	}
	if st := series(); st["dvdc_pool_dials_total"] != 1 || st["dvdc_pool_reuses_total"] != 2 || st["dvdc_pool_open_conns"] != 1 || st["dvdc_pool_stale_drains_total"] != 0 {
		t.Errorf("series after 3 sequential calls: %v", st)
	}

	// Restart the peer on the same address: the pooled connection goes stale
	// and must be drained (and counted) before the fresh-dial retry succeeds.
	addr := s.Addr()
	s.Close()
	s2, err := Listen(addr, func(req *wire.Message) (*wire.Message, error) {
		return &wire.Message{Type: wire.MsgHelloOK}, nil
	})
	if err != nil {
		t.Skipf("could not rebind %s: %v", addr, err)
	}
	defer s2.Close()
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	if st := series(); st["dvdc_pool_stale_drains_total"] != 1 || st["dvdc_pool_dials_total"] != 2 || st["dvdc_pool_open_conns"] != 1 || st["dvdc_pool_retries_total"] != 1 {
		t.Errorf("series after restart drain: %v", st)
	}

	var b strings.Builder
	if err := reg.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`dvdc_pool_dials_total{peer="node1"} 2`,
		`dvdc_pool_stale_drains_total{peer="node1"} 1`,
		`dvdc_pool_open_conns{peer="node1"} 1`,
		`dvdc_rpc_latency_seconds_count{peer="node1"} `,
	} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, b.String())
		}
	}

	// A second pool to the same peer on the same registry, as a node's pool
	// beside the coordinator's in one process: the series sum both pools,
	// and closing one keeps its counts and drops only its connection.
	q := NewPool(addr, PoolOptions{Peer: "node1", Registry: reg, CallTimeout: 2 * time.Second})
	for i := 0; i < 2; i++ {
		if _, err := q.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
			t.Fatal(err)
		}
	}
	if st := series(); st["dvdc_pool_dials_total"] != 3 || st["dvdc_pool_reuses_total"] != 4 || st["dvdc_pool_open_conns"] != 2 || st["dvdc_pool_retries_total"] != 1 {
		t.Errorf("series with two pools to node1: %v, want 3 dials, 4 reuses, 2 open conns, 1 retry", st)
	}
	q.Close()
	if st := series(); st["dvdc_pool_dials_total"] != 3 || st["dvdc_pool_open_conns"] != 1 {
		t.Errorf("series after closing the second pool: %v, want 3 dials, 1 open conn", st)
	}
}

// TestPoolTracePropagation checks that a traced request produces a per-attempt
// rpc span parented under the caller's span, that the server sees the pool's
// re-stamped span id, and that untraced requests produce no spans.
func TestPoolTracePropagation(t *testing.T) {
	seen := make(chan wire.Message, 4)
	s, err := Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		seen <- *req
		return &wire.Message{Type: wire.MsgHelloOK}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	tr := obs.NewTracer(32)
	p := NewPool(s.Addr(), PoolOptions{Peer: "node1", Tracer: tr})
	defer p.Close()

	// Untraced: no span minted.
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	<-seen
	if n := len(tr.Spans()); n != 0 {
		t.Fatalf("untraced call minted %d spans", n)
	}

	root := tr.Start(obs.SpanContext{}, "round", "coord")
	req := &wire.Message{Type: wire.MsgHello, Trace: root.TraceID(), Span: root.ID()}
	if _, err := p.Call(req); err != nil {
		t.Fatal(err)
	}
	root.Finish()

	got := <-seen
	spans := tr.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("trace has %d spans, want rpc + root", len(spans))
	}
	rpc := spans[0]
	if rpc.Name != "rpc hello" || rpc.Parent != root.ID() {
		t.Errorf("rpc span mis-parented: %+v", rpc)
	}
	if got.Trace != root.TraceID() || got.Span != rpc.ID {
		t.Errorf("server saw trace %x span %x, want trace %x span %x (the attempt span)",
			got.Trace, got.Span, root.TraceID(), rpc.ID)
	}
	if req.Span != root.ID() {
		t.Error("pool mutated the caller's message (shared-message data race)")
	}
}

// TestPoolRecordsEachOutcomeOnce holds the pool to one record per call
// attempt: a traced call leaves its rpc span, an untraced call leaves none,
// and the latency histogram counts both.
func TestPoolRecordsEachOutcomeOnce(t *testing.T) {
	s := echoServer(t)
	tr := obs.NewTracer(16)
	reg := obs.NewRegistry()
	p := NewPool(s.Addr(), PoolOptions{Peer: "node1", Tracer: tr, Registry: reg})
	defer p.Close()

	root := tr.Start(obs.SpanContext{}, "round", "coord")
	ctx := root.Context()
	if _, err := p.Call(&wire.Message{Type: wire.MsgHello, Trace: ctx.Trace, Span: ctx.Span}); err != nil {
		t.Fatal(err)
	}
	root.Finish()
	if spans := tr.TraceSpans(ctx.Trace); len(spans) != 2 || spans[0].Attrs["peer"] != "node1" {
		t.Fatalf("traced call left spans %+v, want its rpc span and the root", spans)
	}

	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("untraced call left a span: ring holds %d, want 2", n)
	}
	if n := reg.Histogram("dvdc_rpc_latency_seconds", obs.LatencyBuckets(), "peer", "node1").Snapshot().Total; n != 2 {
		t.Fatalf("latency histogram counted %d attempts, want 2", n)
	}
}
