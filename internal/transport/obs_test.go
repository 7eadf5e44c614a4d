package transport

import (
	"strings"
	"testing"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// TestPoolStatsAndRegistry drives a pool through dial, reuse, and restart
// drain, then checks both the Stats snapshot and the registry exposition.
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
	st := p.Stats()
	if st.Peer != "node1" || st.Dials != 1 || st.Reuses != 2 || st.OpenConns != 1 || st.Idle != 1 {
		t.Errorf("stats after 3 sequential calls: %+v", st)
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
	st = p.Stats()
	if st.StaleDrains != 1 || st.Dials != 2 || st.OpenConns != 1 {
		t.Errorf("stats after restart drain: %+v", st)
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
// attempt: a traced call leaves its rpc span and no flight entry, an
// untraced call leaves a flight entry and no span.
func TestPoolRecordsEachOutcomeOnce(t *testing.T) {
	s := echoServer(t)
	tr := obs.NewTracer(16)
	rec := obs.NewFlightRecorder()
	p := NewPool(s.Addr(), PoolOptions{Peer: "node1", Tracer: tr, Recorder: rec})
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
	if es := rec.Entries(); len(es) != 0 {
		t.Fatalf("traced call left flight entries %+v, want none", es)
	}

	if _, err := p.Call(&wire.Message{Type: wire.MsgHello}); err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Spans()); n != 2 {
		t.Fatalf("untraced call left a span: ring holds %d, want 2", n)
	}
	if es := rec.Entries(); len(es) != 1 || es[0].Kind != "rpc" || es[0].Peer != "node1" || es[0].Trace != 0 {
		t.Fatalf("untraced call left flight entries %+v, want one rpc entry", es)
	}
}
