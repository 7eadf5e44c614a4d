package obs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDumpRoundTrip writes a bundle and reads it back: the tracer's ring in
// the sink's encoding with its eviction count, the metrics snapshot and the
// run metadata, and no record of the dump's own.
func TestDumpRoundTrip(t *testing.T) {
	dir := t.TempDir()
	reg := NewRegistry()
	reg.Counter("dvdc_test_total").Add(7)

	tr := NewTracer(3)
	tr.Mark("chaos.restart", "chaos", "node", "node2") // evicted by the three below
	tr.Mark("chaos.kill", "chaos", "node", "node1")
	root := tr.Start(SpanContext{}, "round", "coord")
	tr.Child(root.Context(), "rpc MsgCommit", "").FinishErr(errors.New("boom"))
	root.Finish()

	path, err := Dump(dir, "unit test!", tr, reg, map[string]interface{}{"seed": int64(99)})
	if err != nil {
		t.Fatalf("Dump: %v", err)
	}
	if !strings.Contains(path, "postmortem-unit-test-") {
		t.Fatalf("bundle path %q not slugged", path)
	}
	if _, err := os.Stat(filepath.Join(path, "flight.jsonl")); !os.IsNotExist(err) {
		t.Fatalf("bundle carries a flight.jsonl (stat err %v)", err)
	}

	b, err := ReadBundle(path)
	if err != nil {
		t.Fatalf("ReadBundle: %v", err)
	}
	if b.Meta.Reason != "unit test!" || b.Meta.Dropped != 1 {
		t.Fatalf("meta = %+v", b.Meta)
	}
	if v, ok := b.Meta.Meta["seed"]; !ok || v != float64(99) { // JSON numbers decode as float64
		t.Fatalf("meta seed = %v", v)
	}
	// The tracer's ring rides along in the sink's encoding. A mark is an
	// instant root span of its own trace.
	if len(b.Spans) != 3 || b.Spans[1].Err != "boom" || b.Spans[2].Name != "round" {
		t.Fatalf("bundle spans = %+v, want the kill mark, the errored rpc span and its round", b.Spans)
	}
	if m := b.Spans[0]; m.Name != "chaos.kill" || m.Lane != "chaos" || m.Parent != 0 || m.Trace != m.ID ||
		!m.Instant() || m.Attrs["node"] != "node1" {
		t.Fatalf("mark = %+v, want an instant root span in lane chaos", m)
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

// TestDumpWithoutDirWritesNothing holds an empty dump directory, the
// unset -postmortem-dir, to no bundle and no error.
func TestDumpWithoutDirWritesNothing(t *testing.T) {
	if path, err := Dump("", "reason", NewTracer(4), NewRegistry(), nil); path != "" || err != nil {
		t.Fatalf("Dump without dir = (%q, %v), want no-op", path, err)
	}
}

// TestReadBundleWithoutSpans reads a bundle from an untraced process: no
// spans.jsonl is written, and the bundle reads back with zero spans.
func TestReadBundleWithoutSpans(t *testing.T) {
	path, err := Dump(t.TempDir(), "untraced", nil, nil, nil)
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
	if len(b.Spans) != 0 || b.Meta.Dropped != 0 || b.Meta.Reason != "untraced" {
		t.Fatalf("bundle = %d spans, meta %+v; want 0 spans", len(b.Spans), b.Meta)
	}
}
