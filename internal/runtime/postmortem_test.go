package runtime

import (
	"errors"
	"strings"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
)

// TestPartialCommitDumpsPostmortemBundle is the black-box recorder's
// end-to-end contract: a node that dies mid-commit must leave a postmortem
// bundle on disk — flight log, metrics snapshot, and meta naming the reason —
// without any cooperation from the caller beyond attaching the recorder.
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
	rec := obs.NewFlightRecorder(512)
	rec.SetDumpDir(dir)
	rec.SetRegistry(reg)
	rec.SetMeta("test", "partial-commit")
	tr.SetTap(rec.Span)

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
	// The flight log must hold the failing RPCs against node1 and the
	// coordinator's closing note naming the epoch, the casualty list and why
	// each casualty was declared dead.
	var failedRPC, note bool
	for _, e := range b.Entries {
		if e.Kind == "rpc" && e.Peer == "node1" && strings.Contains(e.Err, "injected commit failure") {
			failedRPC = true
		}
		if e.Kind == "note" && e.Name == "partial-commit" && e.Attrs["nodes"] == "[1]" {
			note = true
			if !strings.Contains(e.Attrs["node1"], "injected commit failure") {
				t.Errorf("partial-commit note gives node1's reason as %q", e.Attrs["node1"])
			}
		}
	}
	if !failedRPC {
		t.Error("no errored rpc entry for node1 in the flight log")
	}
	if !note {
		t.Error("no partial-commit note entry in the flight log")
	}
	if !strings.Contains(b.Metrics, "dvdc_") {
		t.Error("bundle metrics snapshot is empty")
	}
	// Spans reached the recorder through the tracer tap.
	var sawSpan bool
	for _, e := range b.Entries {
		if e.Kind == "span" {
			sawSpan = true
			break
		}
	}
	if !sawSpan {
		t.Error("no span entries in the flight log; tracer tap not wired")
	}
}

// TestSoakPostmortemWiring runs a clean chaos-free soak with a postmortem dir
// attached: the recorder must see traffic (spans and RPCs tapped) yet dump
// nothing, because nothing went wrong. The failure path is covered by
// TestPartialCommitDumpsPostmortemBundle above and by the chaos soak in CI.
func TestSoakPostmortemWiring(t *testing.T) {
	dir := t.TempDir()
	rec := obs.NewFlightRecorder(1024)
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
	var spans, rpcs int
	for _, e := range rec.Entries() {
		switch e.Kind {
		case "span":
			spans++
		case "rpc":
			rpcs++
		}
	}
	if spans == 0 || rpcs == 0 {
		t.Fatalf("recorder saw %d spans / %d rpcs; soak wiring broken", spans, rpcs)
	}
}

// BenchmarkObsOverhead is the in-repo twin of `dvdcbench -obs`: one
// checkpointed round on the paper layout with the telemetry plane dark versus
// fully lit (tracer, registry, flight-recorder tap, and a per-round collector
// merge/verify/attribute pass). The two subbenches make the plane's cost a
// one-line `benchstat` comparison.
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
		rec = obs.NewFlightRecorder(0)
		rec.SetRegistry(reg)
		tr.SetTap(rec.Span)
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
