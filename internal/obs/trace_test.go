package obs

import (
	"bytes"
	"errors"
	"testing"
)

func TestTracerSpanTree(t *testing.T) {
	tr := NewTracer(64)
	root := tr.Start(SpanContext{}, "round", "coord")
	if root.TraceID() == 0 || root.ID() == 0 {
		t.Fatalf("root ids not minted: %+v", root.Context())
	}
	if root.TraceID() != root.ID() {
		t.Errorf("root span should name its trace: trace %x, span %x", root.TraceID(), root.ID())
	}
	child := tr.Child(root.Context(), "prepare", "")
	if child.TraceID() != root.TraceID() {
		t.Errorf("child trace %x != root trace %x", child.TraceID(), root.TraceID())
	}
	if child.Context().Span == root.ID() {
		t.Error("child span id collided with root")
	}
	if got := tr.OpenSpans(); got != 2 {
		t.Errorf("OpenSpans = %d, want 2", got)
	}
	child.SetAttr("k", "v")
	child.Event("shipped", "vm", "vm-00.01")
	child.FinishErr(errors.New("boom"))
	root.Finish()
	root.Finish() // idempotent
	if got := tr.OpenSpans(); got != 0 {
		t.Errorf("OpenSpans after finish = %d, want 0", got)
	}
	spans := tr.TraceSpans(root.TraceID())
	if len(spans) != 2 {
		t.Fatalf("TraceSpans returned %d spans, want 2", len(spans))
	}
	// Ring stores in finish order: child first.
	if spans[0].Name != "prepare" || spans[0].Err != "boom" || spans[0].Attrs["k"] != "v" {
		t.Errorf("child span mis-stored: %+v", spans[0])
	}
	if len(spans[0].Events) != 1 || spans[0].Events[0].Attrs["vm"] != "vm-00.01" {
		t.Errorf("child events mis-stored: %+v", spans[0].Events)
	}
	if spans[1].Name != "round" || spans[1].Parent != 0 {
		t.Errorf("root span mis-stored: %+v", spans[1])
	}
}

func TestTracerChildNeedsValidParent(t *testing.T) {
	tr := NewTracer(8)
	if sp := tr.Child(SpanContext{}, "x", ""); sp != nil {
		t.Error("Child with invalid parent should be nil")
	}
	tr.Event(SpanContext{}, "x", "") // dropped, not recorded
	if n := len(tr.Spans()); n != 0 {
		t.Errorf("untraced event recorded: %d spans", n)
	}
}

func TestNilTracerAndNilActiveAreSafe(t *testing.T) {
	var tr *Tracer
	sp := tr.Start(SpanContext{}, "x", "")
	if sp != nil {
		t.Fatal("nil tracer minted a span")
	}
	sp.SetAttr("k", "v")
	sp.Event("e")
	sp.FinishErr(errors.New("x"))
	sp.Finish()
	if sp.ID() != 0 || sp.TraceID() != 0 || sp.Context().Valid() {
		t.Error("nil Active leaked ids")
	}
	fb := SpanContext{Trace: 7, Span: 9}
	if got := sp.ContextOr(fb); got != fb {
		t.Errorf("ContextOr = %+v, want fallback", got)
	}
	tr.Event(SpanContext{Trace: 1}, "x", "")
	if tr.OpenSpans() != 0 || tr.Spans() != nil || tr.Flush() != nil {
		t.Error("nil tracer methods not inert")
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		tr.Start(SpanContext{}, "s", "").Finish()
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	for i := 1; i < len(spans); i++ {
		if spans[i].Start.Before(spans[i-1].Start) {
			t.Error("ring not ordered oldest-first")
		}
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	tr := NewTracer(16)
	tr.SetSink(&buf)
	root := tr.Start(SpanContext{}, "round", "coord")
	tr.Event(root.Context(), "chaos.corrupt", "chaos", "pair", "-1->2")
	root.SetAttr("epoch", "3")
	root.Finish()
	if err := tr.Flush(); err != nil {
		t.Fatal(err)
	}
	spans, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("sink emitted %d spans, want 2", len(spans))
	}
	// Event finished first (instant), root second.
	if spans[0].Name != "chaos.corrupt" || spans[0].Parent != root.ID() || spans[0].Trace != root.TraceID() {
		t.Errorf("event span mis-serialized: %+v", spans[0])
	}
	if !spans[0].Instant() {
		t.Error("event span should be instantaneous")
	}
	if spans[1].Attrs["epoch"] != "3" {
		t.Errorf("root attrs lost: %+v", spans[1].Attrs)
	}
}
