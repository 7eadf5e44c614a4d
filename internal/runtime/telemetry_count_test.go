package runtime

import (
	"testing"

	"dvdc/internal/cli"
	"dvdc/internal/obs"
)

// TestTelemetryCountsPerRound is the telemetry plane's cost as counts: over
// three fault-free checkpoint rounds on the paper layout, with one tracer
// and one flight recorder wired as the binaries wire them (cli.Recorder), it
// pins how many spans each round leaves in the tracer's ring and how many
// entries in the recorder. Every traced RPC outcome is its rpc span, so a
// fault-free round keeps no flight entry.
func TestTelemetryCountsPerRound(t *testing.T) {
	const wantSpans, wantEntries = 59, 0
	layout := paperLayout(t)
	tr := obs.NewTracer(1 << 15)
	reg := obs.NewRegistry()
	common := cli.Common{PostmortemDir: t.TempDir()}
	rec := common.Recorder(reg, tr)
	addrs := map[int]string{}
	for i := 0; i < layout.Nodes; i++ {
		n, err := NewNodeWith("127.0.0.1:0", NodeOptions{Tracer: tr, Registry: reg, Recorder: rec})
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
	coord.SetFlightRecorder(rec)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		if err := coord.Step(20); err != nil {
			t.Fatal(err)
		}
		spans0, entries0 := len(tr.Spans()), len(rec.Entries())
		if err := coord.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		spans, entries := len(tr.Spans())-spans0, len(rec.Entries())-entries0
		t.Logf("round %d: %d spans (%d in its trace), %d flight entries", round, spans, len(tr.TraceSpans(coord.RoundStats().TraceID)), entries)
		if spans != wantSpans || entries != wantEntries {
			t.Errorf("round %d kept %d spans and %d flight entries, want %d and %d", round, spans, entries, wantSpans, wantEntries)
		}
	}
}
