package collect

import (
	"errors"
	"strings"
	"testing"

	"dvdc/internal/obs"
)

func TestGroupTracesAndSummaries(t *testing.T) {
	tr := obs.NewTracer(32)
	a := tr.Start(obs.SpanContext{}, "round", "coord")
	tr.Child(a.Context(), "prepare", "").Finish()
	a.Finish()
	b := tr.Start(obs.SpanContext{}, "recovery", "coord")
	b.Finish()
	ids, byTrace := obs.GroupTraces(tr.Spans())
	if len(ids) != 2 {
		t.Fatalf("GroupTraces found %d traces, want 2", len(ids))
	}
	if ids[0] != a.TraceID() || ids[1] != b.TraceID() {
		t.Errorf("traces not ordered by start: %x, %x", ids[0], ids[1])
	}
	if len(byTrace[a.TraceID()]) != 2 {
		t.Errorf("trace a has %d spans, want 2", len(byTrace[a.TraceID()]))
	}
	lines := SummarizeTraces(tr.Spans())
	if len(lines) != 2 || !strings.Contains(lines[0], "round") || !strings.Contains(lines[1], "recovery") {
		t.Errorf("summaries wrong: %q", lines)
	}
}

func TestRenderTimeline(t *testing.T) {
	tr := obs.NewTracer(32)
	root := tr.Start(obs.SpanContext{}, "round", "coord")
	prep := tr.Child(root.Context(), "prepare", "")
	rpc := tr.Child(prep.Context(), "rpc prepare", "")
	tr.Event(rpc.Context(), "chaos.drop", "chaos", "pair", "-1->1")
	rpc.FinishErr(errors.New("connection reset"))
	prep.Finish()
	root.Finish()

	out := RenderTimeline(BuildTree(tr.TraceSpans(root.TraceID())), 48)
	for _, want := range []string{"round", "prepare", "rpc prepare", "chaos.drop", "!", "fault events", "ERR", "pair -1->1"} {
		if !strings.Contains(out, want) {
			t.Errorf("timeline missing %q:\n%s", want, out)
		}
	}
	if got := RenderTimeline(nil, 40); got != "(empty trace)\n" {
		t.Errorf("nil render = %q", got)
	}
	if got := RenderTimeline(BuildTree(nil), 40); got != "(empty trace)\n" {
		t.Errorf("empty render = %q", got)
	}
}

// goldenSpans is roundSpans plus a fault event, an errored rpc, an orphaned
// subtree (its parent never recorded), and a self-parented event.
func goldenSpans() []obs.Span {
	spans := append(roundSpans(),
		mkSpan(7, 12, 3, "chaos.drop", "chaos", 5, 5, "pair", "-1->1"),
		mkSpan(7, 13, 99, "orphaned handler", "node3", 40, 60),
		mkSpan(7, 14, 14, "self-parented", "", 10, 10),
		mkSpan(7, 15, 13, "fold", "", 45, 50),
	)
	spans[9].Err = "connection reset"
	return spans
}

// TestTimelineGolden pins the timeline and summary bytes: tree order with
// lanes inherited, orphans and the self-parented event as top rows in
// canonical order, and the extent over every span.
func TestTimelineGolden(t *testing.T) {
	spans := goldenSpans()
	if got := RenderTimeline(BuildTree(spans), 40); got != timelineGolden {
		t.Fatalf("timeline drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, timelineGolden)
	}
	spans = append(spans,
		mkSpan(9, 20, 0, "recovery", "coord", 200, 260),
		mkSpan(9, 21, 20, "chaos.corrupt", "chaos", 210, 210))
	want := []string{
		"0000000000000007  round epoch=5              15 spans       100ms  1 faults",
		"0000000000000009  recovery                    2 spans        60ms  1 faults",
	}
	if got := SummarizeTraces(spans); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("summaries drifted from golden:\n got %q\nwant %q", got, want)
	}
}

const timelineGolden = `trace 0000000000000007: 15 spans, 100ms wall, 1 fault events
lane     span                  |0 .. 100ms                              | wall
coord    round                 |[======================================]| 100ms
coord      prepare             |[=======]                               | 20ms
coord        rpc MsgPrepare    |[======]                                | 18ms
node1          node.MsgPrepare |[=====]                                 | 16ms
chaos          chaos.drop      |  !                                     | pair -1->1
coord        rpc MsgPrepare    |[===]                                   | 12ms
node2          node.MsgPrepare |[===]                                   | 10ms
coord      commit              |        [==============================]| 80ms
coord        rpc MsgCommit     |        [==============================]| 78ms
node2          node.MsgCommit  |        [===]                           | 9ms
coord        rpc MsgCommit     |        [===]                           | 10ms ERR
node1          node.MsgCommit  |        [==]                            | 8ms
-        self-parented         |    .                                   | event
node3    orphaned handler      |                [=======]               | 20ms
node3      fold                |                  [=]                   | 5ms
  ERR rpc MsgCommit: connection reset
`
