package runtime

import (
	"bytes"
	"strings"
	"testing"

	"dvdc/internal/chaos"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
)

// obsCluster is testCluster with a shared tracer and registry attached to
// the coordinator and every node daemon, plus injector hooks when inj is
// non-nil.
func obsCluster(t *testing.T, tr *obs.Tracer, reg *obs.Registry, inj *chaos.Injector) (*Coordinator, []*Node) {
	t.Helper()
	layout := paperLayout(t)
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		opts := NodeOptions{Tracer: tr, Registry: reg}
		if inj != nil {
			opts.Dialer = inj.Dialer(i)
			opts.Listen = inj.ListenFunc(i)
		}
		n, err := NewNodeWith("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
		if inj != nil {
			inj.Register(i, n.Addr())
		}
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	coord, err := NewCoordinator(layout, addrs, 16, 64, 12345)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetObserver(tr, reg)
	if inj != nil {
		coord.SetDialer(inj.Dialer(chaos.Coordinator))
	}
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	return coord, nodes
}

// TestCheckpointTracePropagation proves the trace context survives the whole
// control path over real loopback TCP: one checkpoint produces a single span
// tree whose root is the coordinator's round span and whose leaves include
// per-peer RPC attempts, node-side handler spans, and per-member delta
// shipments — all sharing the round's trace id.
func TestCheckpointTracePropagation(t *testing.T) {
	tr := obs.NewTracer(0)
	reg := obs.NewRegistry()
	coord, _ := obsCluster(t, tr, reg, nil)

	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	st := coord.RoundStats()
	if st.TraceID == 0 {
		t.Fatal("round recorded no trace id")
	}
	spans := tr.TraceSpans(st.TraceID)
	byID := map[uint64]obs.Span{}
	names := map[string]int{}
	for _, s := range spans {
		byID[s.ID] = s
		switch {
		case strings.HasPrefix(s.Name, "rpc "):
			names["rpc"]++
		case strings.HasPrefix(s.Name, "node."):
			names["node"]++
		case strings.HasPrefix(s.Name, "ship "):
			names["ship"]++
		default:
			names[s.Name]++
		}
	}
	for _, want := range []string{"round", "prepare", "commit", "rpc", "node", "ship"} {
		if names[want] == 0 {
			t.Errorf("trace has no %q span (got %v)", want, names)
		}
	}
	// Every span must chain to the round root through recorded parents.
	for _, s := range spans {
		cur := s
		for cur.Parent != 0 {
			p, ok := byID[cur.Parent]
			if !ok {
				t.Fatalf("span %q has unrecorded parent %x", s.Name, cur.Parent)
			}
			cur = p
		}
		if cur.Name != "round" {
			t.Errorf("span %q roots at %q, want the round span", s.Name, cur.Name)
		}
	}
	if n := tr.OpenSpans(); n != 0 {
		t.Errorf("%d spans still open after checkpoint", n)
	}

	// The registry saw the round: per-phase durations, per-peer RPC latency.
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		`dvdc_round_phase_seconds_count{phase="prepare"} 1`,
		`dvdc_round_phase_seconds_count{phase="commit"} 1`,
		`dvdc_rounds_total{result="committed"} 1`,
		`dvdc_rpc_latency_seconds_bucket{peer="node0",le="+Inf"}`,
		// The chunked data path keeps several frames in flight per peer, so the
		// pool may open extra connections — assert the series exists rather
		// than pinning a concurrency-dependent dial count.
		`dvdc_pool_dials_total{peer="node1"}`,
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestChaosFaultLinksToRetrySpan is the causality acceptance test: an armed
// corrupt fault on a coordinator link must surface in the trace as a
// chaos.corrupt event parented at the exact RPC attempt it mangled, with the
// pool's retry attempt recorded as a sibling span under the same phase span.
func TestChaosFaultLinksToRetrySpan(t *testing.T) {
	tr := obs.NewTracer(0)
	inj := chaos.New(1, chaos.Config{})
	inj.SetTracer(tr)
	coord, _ := obsCluster(t, tr, nil, inj)

	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	// The next frame the coordinator sends node 1 — its prepare — gets an
	// over-limit length prefix; the pool must absorb it with one retry.
	inj.Arm(chaos.Pair{Src: chaos.Coordinator, Dst: 1}, chaos.Corrupt)
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("checkpoint did not survive the armed corrupt: %v", err)
	}
	st := coord.RoundStats()
	if st.RPCRetries == 0 {
		t.Fatal("armed corrupt caused no pool retry")
	}
	spans := tr.TraceSpans(st.TraceID)
	byID := map[uint64]obs.Span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var linked bool
	for _, ev := range spans {
		if ev.Name != "chaos.corrupt" {
			continue
		}
		if ev.Attrs["pair"] == "" || ev.Attrs["armed"] != "true" {
			t.Errorf("chaos event attrs = %v, want pair and armed=true", ev.Attrs)
		}
		hit, ok := byID[ev.Parent]
		if !ok || !strings.HasPrefix(hit.Name, "rpc ") {
			t.Fatalf("chaos event parent %x is not a recorded rpc span", ev.Parent)
		}
		// The retry: another rpc span for the same peer under the same phase
		// span, tagged with its attempt number.
		for _, s := range spans {
			if s.ID != hit.ID && s.Parent == hit.Parent && s.Name == hit.Name &&
				s.Attrs["peer"] == hit.Attrs["peer"] && s.Attrs["attempt"] != "" {
				linked = true
			}
		}
	}
	if !linked {
		t.Fatal("no chaos.corrupt event linked to an rpc attempt with a retry sibling")
	}
}

// TestSoakTraceJSONL runs a kill-free soak with a JSONL sink and a registry
// and checks the whole observability surface end to end: the sink parses
// back, every round has a complete trace with armed-fault events linked into
// it, and the exposition carries the per-peer and per-phase series.
func TestSoakTraceJSONL(t *testing.T) {
	var sink bytes.Buffer
	tr := obs.NewTracer(1 << 15)
	tr.SetSink(&sink)
	reg := obs.NewRegistry()
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        4,
		StepsPerRound: 20,
		Seed:          99,
		ArmPerRound:   2,
		Tracer:        tr,
		Registry:      reg,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("soak failed: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("%d rounds recorded, want %d", len(res.Rounds), cfg.Rounds)
	}

	spans, err := obs.ReadJSONL(&sink)
	if err != nil {
		t.Fatal(err)
	}
	order, byTrace := obs.GroupTraces(spans)
	rounds := 0
	faultEvents := 0
	for _, id := range order {
		byID := map[uint64]bool{}
		for _, s := range byTrace[id] {
			byID[s.ID] = true
		}
		isRound := false
		for _, s := range byTrace[id] {
			if s.Parent == 0 && s.Name == "round" {
				isRound = true
			}
			if strings.HasPrefix(s.Name, "chaos.") {
				faultEvents++
				if !byID[s.Parent] {
					t.Errorf("fault event %q in trace %016x has unrecorded parent %x", s.Name, id, s.Parent)
				}
			}
		}
		if isRound {
			rounds++
		}
	}
	if rounds < cfg.Rounds {
		t.Errorf("JSONL holds %d round traces, want >= %d", rounds, cfg.Rounds)
	}
	if faultEvents == 0 {
		t.Error("no chaos.* events in the JSONL despite armed faults every round")
	}

	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	exp := buf.String()
	for _, want := range []string{
		"dvdc_chaos_faults_total{kind=",
		`dvdc_round_phase_seconds_bucket{phase="prepare",le=`,
		"dvdc_rpc_latency_seconds_bucket{peer=",
		"dvdc_pool_retries_total{peer=",
		"dvdc_round_shipped_bytes_sum",
	} {
		if !strings.Contains(exp, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The timeline viewer renders every round trace without choking.
	for _, id := range order {
		if out := collect.RenderTimeline(collect.BuildTree(byTrace[id]), 90); !strings.Contains(out, "spans") {
			t.Errorf("timeline render for trace %016x produced %q", id, out)
		}
	}
}
