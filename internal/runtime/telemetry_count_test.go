package runtime

import (
	"fmt"
	"slices"
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
// spans. The session ends with a node lost and rejoined: a restore probes a
// live node and recovers a killed one, and the repair that brings the
// restarted daemon back is a span tree too. Every node.configure span is in
// the lane of the node it configures.
func TestTelemetryCountsPerRound(t *testing.T) {
	const wantRound, wantStep, wantQuiesce, wantChecksums, wantRepair = 59, 9, 9, 25, 3
	layout := paperLayout(t)
	tr := obs.NewTracer(1 << 15)
	reg := obs.NewRegistry()
	opts := NodeOptions{Tracer: tr, Registry: reg}
	addrs := map[int]string{}
	nodes := make([]*Node, layout.Nodes)
	for i := range nodes {
		n, err := NewNodeWith("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
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
	// Each daemon handles its configure in its own lane, though it learns its
	// index from that very configure.
	var lanes []string
	for _, s := range tr.Spans() {
		if s.Name == "node.configure" {
			lanes = append(lanes, s.Lane)
		}
	}
	slices.Sort(lanes)
	if want := []string{"node0", "node1", "node2", "node3"}; !slices.Equal(lanes, want) {
		t.Errorf("Setup's node.configure spans are in lanes %v, want %v", lanes, want)
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

	// Kill node 1 and restore nodes 0 and 1: each is probed with a hello
	// under one restore root. Live node 0's probe is an rpc span and the
	// daemon's node.hello under it; node 1's probe leaves one failed attempt
	// per stale pooled connection and one for the refused dial that ends it,
	// so it owes a recovery, which nests under the same root.
	const live, victim = 0, 1
	nodes[victim].Close()
	before := len(tr.Spans())
	if _, err := coord.ExecuteRestore(obs.SpanContext{}, []int{live, victim}); err != nil {
		t.Fatal(err)
	}
	var root obs.Span
	for _, s := range tr.Spans()[before:] {
		if s.Parent == 0 {
			root = s
		}
	}
	probes := map[string]int{}
	for _, s := range tr.TraceSpans(root.Trace) {
		switch {
		case s.Name == "recovery" && s.Parent == root.ID && s.Err == "":
			probes["recovery"]++
		case s.Name == "node.hello":
			probes["answered"]++
		case s.Name == "rpc hello" && s.Parent == root.ID && s.Err == "":
			probes[s.Attrs["peer"]]++
		case s.Name == "rpc hello" && s.Parent == root.ID:
			probes[s.Attrs["peer"]+" failed"]++
		}
	}
	if failed := probes["node1 failed"]; root.Name != "restore" || probes["node0"] != 1 || probes["answered"] != 1 ||
		probes["node1"] != 0 || failed < 2 || failed > 5 || probes["recovery"] != 1 {
		t.Errorf("restore root %q holds %v; want one answered probe of node 0, 2..5 failed attempts on node 1 (one per pooled connection, one refused dial) and one clean recovery",
			root.Name, probes)
	}

	// Restart node 1's daemon on its address and repair it: a repair root,
	// its configure rpc span and the daemon's node.configure under that.
	n, err := NewNodeWith(addrs[victim], opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	before = len(tr.Spans())
	if err := coord.Repair(victim); err != nil {
		t.Fatal(err)
	}
	if got := tr.Spans()[before:]; len(got) != wantRepair {
		t.Errorf("Repair kept %d spans, want %d: %+v", len(got), wantRepair, got)
	} else if got[2].Name != "repair" || got[1].Name != "rpc configure" || got[1].Attrs["peer"] != "node1" || got[1].Parent != got[2].ID ||
		got[0].Name != "node.configure" || got[0].Parent != got[1].ID || got[0].Lane != "node1" {
		t.Errorf("Repair's spans %+v, want node.configure in lane node1 under an rpc configure to node1 under a repair root", got)
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
