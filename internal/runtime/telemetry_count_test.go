package runtime

import (
	"fmt"
	"strings"
	"testing"

	"dvdc/internal/obs"
)

// TestTelemetryCountsPerRound is the telemetry plane's cost as counts: over
// three fault-free checkpoint rounds on the paper layout, with one tracer and
// one registry wired as the binaries wire them, it pins how many spans each
// round leaves in the tracer's ring, and how many one Step, one Quiesce and
// one Checksums leave. Each of those opens a root span whose rpc spans hang
// under it, so every RPC the coordinator causes is a span: over the whole
// session the pools' latency histograms, which count every call attempt,
// traced or not, must count exactly as many samples as the ring holds rpc
// spans.
func TestTelemetryCountsPerRound(t *testing.T) {
	const wantRound, wantStep, wantQuiesce, wantChecksums = 59, 9, 9, 25
	layout := paperLayout(t)
	tr := obs.NewTracer(1 << 15)
	reg := obs.NewRegistry()
	addrs := map[int]string{}
	for i := 0; i < layout.Nodes; i++ {
		n, err := NewNodeWith("127.0.0.1:0", NodeOptions{Tracer: tr, Registry: reg})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		addrs[i] = n.Addr()
	}
	coord, err := NewCoordinator(layout, addrs, 16, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetObserver(tr, reg)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	spansOf := func(op func() error) int {
		before := len(tr.Spans())
		if err := op(); err != nil {
			t.Fatal(err)
		}
		return len(tr.Spans()) - before
	}
	for round := 1; round <= 3; round++ {
		if n := spansOf(func() error { return coord.Step(20) }); n != wantStep {
			t.Errorf("round %d: Step kept %d spans, want %d", round, n, wantStep)
		}
		n := spansOf(coord.Checkpoint)
		t.Logf("round %d: %d spans (%d in its trace)", round, n, len(tr.TraceSpans(coord.RoundStats().TraceID)))
		if n != wantRound {
			t.Errorf("round %d kept %d spans, want %d", round, n, wantRound)
		}
	}
	if n := spansOf(coord.Quiesce); n != wantQuiesce {
		t.Errorf("Quiesce kept %d spans, want %d", n, wantQuiesce)
	}
	if n := spansOf(func() error { _, err := coord.Checksums(); return err }); n != wantChecksums {
		t.Errorf("Checksums kept %d spans, want %d", n, wantChecksums)
	}
	if _, err := coord.NodeStats(2); err != nil {
		t.Fatal(err)
	}

	var samples, rpcs int64
	for n := 0; n < layout.Nodes; n++ {
		h, _ := reg.HistogramSnapshot("dvdc_rpc_latency_seconds", "peer", fmt.Sprintf("node%d", n))
		samples += h.Total
	}
	for _, s := range tr.Spans() {
		if strings.HasPrefix(s.Name, "rpc ") {
			rpcs++
		}
	}
	if tr.Dropped() != 0 || samples == 0 || samples != rpcs {
		t.Errorf("dvdc_rpc_latency_seconds counts %d samples, the ring %d rpc spans (%d evicted)", samples, rpcs, tr.Dropped())
	}
}
