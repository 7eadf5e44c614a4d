package runtime

import (
	"errors"
	"strings"
	"sync/atomic"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
)

// TestPartialCommitDumpsPostmortemBundle is the black-box recorder's
// end-to-end contract: a node that dies mid-commit must leave a postmortem
// bundle on disk — flight log, the tracer's spans, metrics snapshot, and meta
// naming the reason — without any cooperation from the caller beyond
// attaching the recorder.
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
	rec := obs.NewFlightRecorder()
	rec.SetDumpDir(dir)
	rec.SetRegistry(reg)
	rec.SetTracer(tr)
	rec.SetMeta("test", "partial-commit")

	coord, err := NewCoordinator(layout, addrs, 16, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetObserver(tr, reg)
	coord.SetFlightRecorder(rec)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}

	// One clean round fills the flight ring with healthy traffic, then node
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
	commitSpans := 0
	for _, s := range tr.TraceSpans(coord.RoundStats().TraceID) {
		if s.Name == "commit" {
			commitSpans++
			if !strings.Contains(s.Attrs["node1"], "injected commit failure") {
				t.Errorf("commit span gives node1's reason as %q", s.Attrs["node1"])
			}
		}
	}
	if commitSpans != 1 {
		t.Errorf("round trace holds %d commit spans, want 1", commitSpans)
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
	if b.Meta.Meta["test"] != "partial-commit" {
		t.Errorf("bundle meta = %v, SetMeta lost", b.Meta.Meta)
	}
	if len(b.Entries) == 0 {
		t.Fatal("bundle has no flight entries")
	}
	// The bundle's spans must hold the failing commit RPCs against node1, and
	// its flight log the coordinator's closing note naming the epoch, the
	// casualty list and why each casualty was declared dead.
	var failedRPC, note bool
	for _, s := range b.Spans {
		if s.Name == "rpc commit" && s.Attrs["peer"] == "node1" && strings.Contains(s.Err, "injected commit failure") {
			failedRPC = true
		}
	}
	for _, e := range b.Entries {
		if e.Kind == "rpc" && e.Trace != 0 {
			t.Errorf("traced rpc outcome also kept as a flight entry: %v", e)
		}
		if e.Kind == "note" && e.Name == "partial-commit" && e.Attrs["nodes"] == "[1]" {
			note = true
			if !strings.Contains(e.Attrs["node1"], "injected commit failure") {
				t.Errorf("partial-commit note gives node1's reason as %q", e.Attrs["node1"])
			}
		}
	}
	if !failedRPC {
		t.Error("no errored commit rpc span for node1 in the bundle")
	}
	if !note {
		t.Error("no partial-commit note entry in the flight log")
	}
	if !strings.Contains(b.Metrics, "dvdc_") {
		t.Error("bundle metrics snapshot is empty")
	}
	if got, want := len(b.Spans), len(tr.Spans()); got != want {
		t.Errorf("bundle holds %d spans, the tracer's ring %d", got, want)
	}
}

// TestSoakPostmortemWiring runs a clean chaos-free soak with a postmortem dir
// attached: nothing goes wrong, so nothing dumps, yet the recorder must hold
// the soak's own tracer, so a dump carries every round's spans. The failure
// path is covered by TestPartialCommitDumpsPostmortemBundle above and by the
// chaos soak in CI.
func TestSoakPostmortemWiring(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewFlightRecorder()
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        3,
		StepsPerRound: 20,
		Seed:          7,
		Recorder:      rec,
		PostmortemDir: dir,
	}
	if _, err := RunSoak(cfg); err != nil {
		t.Fatalf("clean soak failed: %v", err)
	}
	if found, _ := obs.FindBundles(dir); len(found) != 0 {
		t.Fatalf("clean soak dumped bundles: %v", found)
	}
	path, err := rec.Dump(t.TempDir(), "probe")
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	rounds := 0
	for _, s := range b.Spans {
		if s.Parent == 0 && s.Name == "round" {
			rounds++
		}
	}
	if rounds != cfg.Rounds {
		t.Fatalf("bundle holds %d round traces of %d spans, want %d; soak wiring broken", rounds, len(b.Spans), cfg.Rounds)
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
		Recorder:      obs.NewFlightRecorder(),
	}
	if _, err := RunSoak(cfg); err != nil {
		t.Fatalf("clean soak failed: %v", err)
	}
	if got, ring := tapped.Load(), int64(len(tr.Spans())); ring == 0 || got != ring {
		t.Fatalf("caller's tap saw %d spans, the ring holds %d", got, ring)
	}
}

// BenchmarkObsOverhead times one checkpointed round on the paper layout with
// the telemetry plane dark versus fully lit (tracer, registry, flight
// recorder, and a per-round collector merge/verify/attribute pass). The two
// subbenches make the plane's cost a one-line `benchstat` comparison;
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
		rec *obs.FlightRecorder
	)
	if full {
		tr = obs.NewTracer(1 << 15)
		reg = obs.NewRegistry()
		rec = obs.NewFlightRecorder()
		rec.SetRegistry(reg)
		rec.SetTracer(tr)
		nopts = NodeOptions{Tracer: tr, Registry: reg, Recorder: rec}
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
		coord.SetFlightRecorder(rec)
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
