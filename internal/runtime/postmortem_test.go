package runtime

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
)

// TestPartialCommitDumpsPostmortemBundle is the black box's end-to-end
// contract: a node that dies mid-commit must leave a postmortem bundle on
// disk — the tracer's spans, metrics snapshot, and meta naming the reason,
// the seed and the node count — without any cooperation from the caller
// beyond naming the dump directory.
func TestPartialCommitDumpsPostmortemBundle(t *testing.T) {
	dir := t.TempDir()
	layout := paperLayout(t)
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	proxyAddr, failing := commitFailProxy(t, nodes[1].Addr())
	addrs[1] = proxyAddr

	tr := obs.NewTracer(1 << 12)
	reg := obs.NewRegistry()

	coord, err := NewCoordinator(layout, addrs, 16, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetObserver(tr, reg)
	coord.SetPostmortemDir(dir)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}

	// One clean round fills the tracer's ring with healthy traffic, then node
	// 1's commits start failing.
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if found, _ := obs.FindBundles(dir); len(found) != 0 {
		t.Fatalf("bundle dumped on a healthy round: %v", found)
	}
	failing.Store(true)
	var pce *PartialCommitError
	if err := coord.Checkpoint(); !errors.As(err, &pce) {
		t.Fatalf("checkpoint error = %v, want *PartialCommitError", err)
	}
	found, err := obs.FindBundles(dir)
	if err != nil || len(found) != 1 {
		t.Fatalf("FindBundles = %v, %v, want exactly one bundle", found, err)
	}
	b, err := obs.ReadBundle(found[0])
	if err != nil {
		t.Fatal(err)
	}
	if b.Meta.Reason != "partial-commit" {
		t.Errorf("bundle reason = %q", b.Meta.Reason)
	}
	if b.Meta.Meta["seed"] != float64(99) || b.Meta.Meta["nodes"] != float64(layout.Nodes) { // JSON numbers decode as float64
		t.Errorf("bundle meta = %v, want seed 99 and %d nodes", b.Meta.Meta, layout.Nodes)
	}
	// The bundle's spans must hold the failing commit RPCs against node1,
	// the round's one commit span naming why node1 was declared dead, and the
	// setup and step traces: every RPC the coordinator caused is a span.
	var failedRPC bool
	commitSpans := 0
	roots := map[string]int{}
	trace := coord.RoundStats().TraceID
	for _, s := range b.Spans {
		if s.Name == "rpc commit" && s.Attrs["peer"] == "node1" && strings.Contains(s.Err, "injected commit failure") {
			failedRPC = true
		}
		if s.Trace == trace && s.Name == "commit" {
			commitSpans++
			if !strings.Contains(s.Attrs["node1"], "injected commit failure") {
				t.Errorf("commit span gives node1's reason as %q", s.Attrs["node1"])
			}
		}
		if s.Parent == 0 {
			roots[s.Name]++
		}
	}
	if !failedRPC {
		t.Error("no errored commit rpc span for node1 in the bundle")
	}
	if commitSpans != 1 {
		t.Errorf("the partial round's trace holds %d commit spans in the bundle, want 1", commitSpans)
	}
	if roots["setup"] != 1 || roots["step"] != 1 || roots["round"] != 2 {
		t.Errorf("bundle roots = %v, want one setup, one step and two rounds", roots)
	}
	if _, err := os.Stat(filepath.Join(found[0], "flight.jsonl")); !os.IsNotExist(err) {
		t.Errorf("bundle carries a flight.jsonl (stat err %v)", err)
	}
	if !strings.Contains(b.Metrics, "dvdc_") {
		t.Error("bundle metrics snapshot is empty")
	}
	if got, want := len(b.Spans), len(tr.Spans()); got != want {
		t.Errorf("bundle holds %d spans, the tracer's ring %d", got, want)
	}
}

// TestSoakPostmortemWiring boots a soak's cluster with a postmortem dir and
// fails an invariant by hand: the bundle must carry the soak's own tracer
// (the setup's spans), its registry, and meta naming the run and the
// violation. A clean soak dumps nothing. The partial-commit path is covered
// by TestPartialCommitDumpsPostmortemBundle above and by the chaos soak in CI.
func TestSoakPostmortemWiring(t *testing.T) {
	dir := t.TempDir()
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        3,
		StepsPerRound: 20,
		Seed:          7,
		Registry:      obs.NewRegistry(),
		PostmortemDir: dir,
	}
	if _, err := RunSoak(cfg); err != nil {
		t.Fatalf("clean soak failed: %v", err)
	}
	if found, _ := obs.FindBundles(dir); len(found) != 0 {
		t.Fatalf("clean soak dumped bundles: %v", found)
	}
	e, err := newSoakEnv(cfg.withDefaults())
	if err != nil {
		t.Fatal(err)
	}
	defer e.cl.Close()
	if _, err := e.fail(2, "probe %d", 1); err == nil || !strings.Contains(err.Error(), "probe 1") {
		t.Fatalf("fail returned %v", err)
	}
	found, err := obs.FindBundles(dir)
	if err != nil || len(found) != 1 {
		t.Fatalf("FindBundles = %v, %v, want the violation's bundle", found, err)
	}
	b, err := obs.ReadBundle(found[0])
	if err != nil {
		t.Fatal(err)
	}
	m := b.Meta.Meta
	if b.Meta.Reason != "soak-invariant" || m["violation"] != "round 2: probe 1" || m["seed"] != float64(7) ||
		m["rounds"] != float64(3) || m["nodes"] != float64(4) {
		t.Errorf("bundle reason %q, meta %v", b.Meta.Reason, m)
	}
	setups := 0
	for _, s := range b.Spans {
		if s.Parent == 0 && s.Name == "setup" {
			setups++
		}
	}
	if setups != 1 || !strings.Contains(b.Metrics, "dvdc_") {
		t.Fatalf("bundle holds %d setup roots of %d spans and %d metric bytes; soak wiring broken", setups, len(b.Spans), len(b.Metrics))
	}
}

// TestSoakKeepsCallerTap passes a soak a tracer whose tap is the caller's:
// the soak must leave the tap in place, so it sees every span the ring
// keeps.
func TestSoakKeepsCallerTap(t *testing.T) {
	tr := obs.NewTracer(1 << 15)
	var tapped atomic.Int64
	tr.SetTap(func(obs.Span) { tapped.Add(1) })
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        2,
		StepsPerRound: 20,
		Seed:          7,
		Tracer:        tr,
	}
	if _, err := RunSoak(cfg); err != nil {
		t.Fatalf("clean soak failed: %v", err)
	}
	if got, ring := tapped.Load(), int64(len(tr.Spans())); ring == 0 || got != ring {
		t.Fatalf("caller's tap saw %d spans, the ring holds %d", got, ring)
	}
}

// BenchmarkObsOverhead times one checkpointed round on the paper layout with
// the telemetry plane dark versus fully lit (tracer, registry, postmortem
// dump directory, and a per-round collector merge/verify/attribute pass). The
// two subbenches make the plane's cost a one-line `benchstat` comparison;
// TestTelemetryCountsPerRound gates what the lit plane keeps per round.
func BenchmarkObsOverhead(b *testing.B) {
	for _, full := range []bool{false, true} {
		name := "dark"
		if full {
			name = "full"
		}
		b.Run(name, func(b *testing.B) {
			benchObsRound(b, full)
		})
	}
}

func benchObsRound(b *testing.B, full bool) {
	layout, err := cluster.Paper12VM()
	if err != nil {
		b.Fatal(err)
	}
	var nopts NodeOptions
	var (
		tr  *obs.Tracer
		reg *obs.Registry
	)
	if full {
		tr = obs.NewTracer(1 << 15)
		reg = obs.NewRegistry()
		nopts = NodeOptions{Tracer: tr, Registry: reg}
	}
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNodeWith("127.0.0.1:0", nopts)
		if err != nil {
			b.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	b.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	coord, err := NewCoordinator(layout, addrs, 256, 4096, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(coord.Close)
	if full {
		coord.SetObserver(tr, reg)
		coord.SetPostmortemDir(b.TempDir())
	}
	if err := coord.Setup(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := coord.Step(20); err != nil {
			b.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		if full {
			// The collector pass the telemetry plane adds per round: merge the
			// round's spans, verify the tree, and name the straggler.
			tree := collect.BuildTree(tr.TraceSpans(coord.RoundStats().TraceID))
			if err := tree.Verify(); err != nil {
				b.Fatal(err)
			}
			collect.Attribute(tree).Export(reg)
		}
	}
}
