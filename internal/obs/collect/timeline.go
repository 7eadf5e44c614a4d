package collect

import (
	"fmt"
	"strings"
	"time"

	"dvdc/internal/obs"
)

// RenderTimeline renders one trace tree as an ASCII phase timeline: one row
// per span in tree order (children indented under parents), a lane column
// naming who did the work (coord, nodeN, chaos), and a bar scaled to the
// tree's extent. Instantaneous fault events (chaos.*) render as a '!' marker
// at the moment they fired; other instant events as '.'. width is the bar
// width in characters (<= 0 picks 64).
func RenderTimeline(t *Tree, width int) string {
	if t == nil || len(t.Spans) == 0 {
		return "(empty trace)\n"
	}
	if width <= 0 {
		width = 64
	}
	t0, t1 := t.extent()
	total := t1.Sub(t0)
	if total <= 0 {
		total = time.Nanosecond
	}
	col := func(at time.Time) int {
		c := int(float64(at.Sub(t0)) / float64(total) * float64(width))
		return min(max(c, 0), width-1)
	}

	rows := t.rows()
	nameCol := 0
	for _, r := range rows {
		nameCol = max(nameCol, 2*r.depth+len(r.span.Name))
	}
	nameCol = min(nameCol, 40)

	var b strings.Builder
	fmt.Fprintf(&b, "trace %016x: %d spans, %v wall", t.Trace, len(t.Spans), total.Round(time.Microsecond))
	if faults := countFaults(t.Spans); faults > 0 {
		fmt.Fprintf(&b, ", %d fault events", faults)
	}
	b.WriteByte('\n')
	fmt.Fprintf(&b, "%-8s %-*s |%-*s| %s\n", "lane", nameCol, "span", width, "0 .. "+total.Round(time.Microsecond).String(), "wall")

	for _, r := range rows {
		s := r.span
		bar := []byte(strings.Repeat(" ", width))
		var tail string
		if s.Instant() {
			mark := byte('.')
			if isFault(*s) {
				mark = '!'
			}
			bar[col(s.Start)] = mark
			tail = "event"
			if p := s.Attrs["pair"]; p != "" {
				tail = "pair " + p
			}
		} else {
			from, to := col(s.Start), col(s.End)
			to = max(to, from)
			for i := from; i <= to; i++ {
				bar[i] = '='
			}
			bar[from] = '['
			if to > from {
				bar[to] = ']'
			}
			tail = s.Duration().Round(time.Microsecond).String()
		}
		name := strings.Repeat("  ", r.depth) + s.Name
		if len(name) > nameCol {
			name = name[:nameCol]
		}
		if s.Err != "" {
			tail += " ERR"
		}
		lane := r.lane
		if lane == "" {
			lane = "-"
		}
		fmt.Fprintf(&b, "%-8s %-*s |%s| %s\n", lane, nameCol, name, bar, tail)
	}
	// Errors rendered in full below the chart so the rows stay aligned.
	for _, r := range rows {
		if r.span.Err != "" {
			fmt.Fprintf(&b, "  ERR %s: %s\n", r.span.Name, r.span.Err)
		}
	}
	return b.String()
}

// SummarizeTraces renders one line per trace (ordered by first span start):
// trace id, root span name, span count, wall-clock extent, and fault-event
// count. Used by `dvdcctl trace` to list what a JSONL file holds.
func SummarizeTraces(spans []obs.Span) []string {
	ids, byTrace := obs.GroupTraces(spans)
	out := make([]string, 0, len(ids))
	for _, id := range ids {
		t := BuildTree(byTrace[id])
		root := "?"
		if r := t.Root(); r != nil {
			root = r.Name
			if e := r.Attrs["epoch"]; e != "" {
				root += " epoch=" + e
			}
		}
		t0, t1 := t.extent()
		line := fmt.Sprintf("%016x  %-24s %4d spans  %10v", id, root, len(t.Spans), t1.Sub(t0).Round(time.Microsecond))
		if faults := countFaults(t.Spans); faults > 0 {
			line += fmt.Sprintf("  %d faults", faults)
		}
		out = append(out, line)
	}
	return out
}

// isFault reports whether a span is an injected-fault event.
func isFault(s obs.Span) bool { return strings.HasPrefix(s.Name, "chaos.") }

func countFaults(spans []obs.Span) int {
	n := 0
	for _, s := range spans {
		if isFault(s) {
			n++
		}
	}
	return n
}
