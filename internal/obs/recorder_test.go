package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestFlightRecorderFeeds(t *testing.T) {
	rec := NewFlightRecorder()
	rec.Note("round-start", "round", "3")
	rec.RPC("node1", "MsgPrepare", 5*time.Millisecond, 42, nil)
	rec.RPC("node2", "MsgCommit", 7*time.Millisecond, 42, errors.New("boom"))
	rec.Chaos("drop", "-1->2", "armed")
	rec.Alert("round_time_p99", "firing", "burn", "14.4")

	es := rec.Entries()
	if len(es) != 5 {
		t.Fatalf("entries = %d, want 5", len(es))
	}
	if es[0].Kind != "note" || es[0].Attrs["round"] != "3" {
		t.Fatalf("note entry = %+v", es[0])
	}
	if es[1].Kind != "rpc" || es[1].Peer != "node1" || es[1].Err != "" {
		t.Fatalf("rpc entry = %+v", es[1])
	}
	if es[2].Err != "boom" {
		t.Fatalf("errored rpc entry = %+v", es[2])
	}
	if es[3].Kind != "chaos" || es[3].Name != "drop" {
		t.Fatalf("chaos entry = %+v", es[3])
	}
	if es[4].Kind != "alert" || es[4].Attrs["state"] != "firing" || es[4].Attrs["burn"] != "14.4" {
		t.Fatalf("alert entry = %+v", es[4])
	}
	for _, e := range es {
		if e.Time.IsZero() {
			t.Fatalf("entry %+v missing timestamp", e)
		}
	}
	if line := es[2].String(); !strings.Contains(line, "ERR=boom") || !strings.Contains(line, "peer=node2") {
		t.Fatalf("rendered entry %q missing error/peer", line)
	}
}

func TestFlightRecorderDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Counter("dvdc_test_total").Add(7)

	tr := NewTracer(16)
	root := tr.Start(SpanContext{}, "round", "coord")
	tr.Child(root.Context(), "rpc MsgCommit", "").FinishErr(errors.New("boom"))
	root.Finish()

	rec := NewFlightRecorder()
	rec.SetRegistry(reg)
	rec.SetTracer(tr)
	rec.SetMeta("seed", int64(99))
	for i := 0; i < flightRingSize+4; i++ { // overflow the ring: 4 evicted
		rec.RPC("node0", "MsgStep", time.Millisecond, 0, nil)
	}
	path, err := rec.Dump(dir, "unit test!")
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if !strings.Contains(path, "postmortem-unit-test-") {
		t.Fatalf("bundle path %q not slugged", path)
	}
	if rec.Dumps() != 1 {
		t.Fatalf("Dumps = %d, want 1", rec.Dumps())
	}

	b, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Meta.Reason != "unit test!" || b.Meta.Entries != flightRingSize || b.Meta.Dropped != 4 {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if v, ok := b.Meta.Meta["seed"]; !ok || v != float64(99) { // JSON numbers decode as float64
		t.Fatalf("meta seed = %v", v)
	}
	if len(b.Entries) != flightRingSize {
		t.Fatalf("entries = %d, want %d", len(b.Entries), flightRingSize)
	}
	// The tracer's ring rides along in the sink's encoding.
	if len(b.Spans) != 2 || b.Spans[0].Err != "boom" || b.Spans[1].Name != "round" {
		t.Fatalf("bundle spans = %+v, want the errored rpc span and its round", b.Spans)
	}
	var sink bytes.Buffer
	if err := writeJSONL(&sink, tr.Spans()); err != nil {
		t.Fatal(err)
	}
	if onDisk, err := os.ReadFile(filepath.Join(path, "spans.jsonl")); err != nil || string(onDisk) != sink.String() {
		t.Fatalf("spans.jsonl = %q, %v; want the sink's bytes %q", onDisk, err, sink.String())
	}
	if !strings.Contains(b.Metrics, "dvdc_test_total 7") {
		t.Fatalf("metrics snapshot missing counter:\n%s", b.Metrics)
	}

	found, err := FindBundles(dir)
	if err != nil || len(found) != 1 || found[0] != path {
		t.Fatalf("FindBundles = %v, %v", found, err)
	}
}

func TestFlightRecorderAutoDumpDisabled(t *testing.T) {
	rec := NewFlightRecorder()
	rec.Note("x")
	path, err := rec.AutoDump("reason")
	if err != nil || path != "" {
		t.Fatalf("AutoDump without dir = (%q, %v), want no-op", path, err)
	}
	if rec.Dumps() != 0 {
		t.Fatalf("Dumps = %d, want 0", rec.Dumps())
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var rec *FlightRecorder
	rec.Note("x")
	rec.RPC("p", "m", 0, 0, nil)
	rec.Chaos("k", "p", "")
	rec.SetDumpDir("/nope")
	rec.SetRegistry(nil)
	rec.SetTracer(nil)
	rec.SetMeta("k", 1)
	if rec.Entries() != nil || rec.Dropped() != 0 || rec.Dumps() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if path, err := rec.AutoDump("r"); path != "" || err != nil {
		t.Fatal("nil AutoDump must be a no-op")
	}
}

// TestReadBundleWithoutSpans reads a bundle from an untraced process: no
// spans.jsonl is written, and the bundle reads back with zero spans.
func TestReadBundleWithoutSpans(t *testing.T) {
	rec := NewFlightRecorder()
	rec.Note("x")
	path, err := rec.Dump(t.TempDir(), "untraced")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(path, "spans.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("untraced dump wrote spans.jsonl (stat err %v)", err)
	}
	b, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Spans) != 0 || len(b.Entries) != 1 {
		t.Fatalf("bundle = %d spans, %d entries; want 0, 1", len(b.Spans), len(b.Entries))
	}
}
