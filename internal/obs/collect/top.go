package collect

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"dvdc/internal/obs"
)

// SourceStatus is one scraped endpoint's health as the top view shows it.
type SourceStatus struct {
	Addr      string
	Up        bool
	Err       string // scrape failure, when !Up
	OpenSpans int64  // dvdc_obs_open_spans at scrape time
	Dropped   int64  // dvdc_spans_dropped_total at scrape time
	Spans     int    // spans held from this source's last scrape

	DedupHits  int64 // dvdc_dedup_hits_total: dirty pages capture skipped as unchanged
	DedupSaved int64 // dvdc_dedup_bytes_saved_total: payload bytes those skips avoided
}

// TopView is everything `dvdcctl top` renders for one refresh: per-source
// scrape health, the latest merged round tree's verdict, the per-lane time
// breakdown with the straggler marked, and habitual latency outliers. It is
// plain data so rendering is a pure function (golden-testable).
type TopView struct {
	Sources []SourceStatus

	Trace     uint64
	Epoch     string // root span's epoch attr ("" when unknown)
	Wall      time.Duration
	Closed    bool   // merged tree verified single-rooted and closed
	VerifyErr string // why not, when !Closed
	Attr      *Attribution

	Outliers      []string
	ClusterMedian time.Duration
	PeerP99       map[string]time.Duration
}

// BuildTopView scrapes every source into c, merges, picks the latest round
// trace, verifies it, and runs attribution. outliers may be nil.
func BuildTopView(c *Collector, sources []string, outliers *OutlierTracker) TopView {
	var v TopView
	for _, addr := range sources {
		st := SourceStatus{Addr: addr}
		n, err := c.ScrapeSpans(addr)
		if err != nil {
			st.Err = err.Error()
		} else {
			st.Up = true
			st.Spans = n
			if exp, merr := c.ScrapeMetrics(addr); merr == nil {
				if f, ok := MetricValue(exp, "dvdc_obs_open_spans"); ok {
					st.OpenSpans = int64(f)
				}
				if f, ok := MetricValue(exp, "dvdc_spans_dropped_total"); ok {
					st.Dropped = int64(f)
				}
				if f, ok := MetricValue(exp, "dvdc_dedup_hits_total"); ok {
					st.DedupHits = int64(f)
				}
				if f, ok := MetricValue(exp, "dvdc_dedup_bytes_saved_total"); ok {
					st.DedupSaved = int64(f)
				}
			}
		}
		v.Sources = append(v.Sources, st)
	}
	if outliers != nil {
		outliers.ObserveSpans(c.Spans())
	}
	// A direct-driven session roots the trace at the "round" span; a
	// service-driven one wraps it in the reconciler's "reconcile" span.
	v.Trace = c.LatestRound("round")
	if v.Trace == 0 {
		v.Trace = c.LatestRound("reconcile")
	}
	if v.Trace != 0 {
		t := c.Tree(v.Trace)
		v.Wall = t.Wall()
		if err := t.Verify(); err != nil {
			v.VerifyErr = err.Error()
		} else {
			v.Closed = true
		}
		v.Attr = Attribute(t)
		if r := t.Root(); r != nil {
			v.Epoch = r.Attrs["epoch"]
		}
		if v.Epoch == "" {
			// Reconcile roots carry no epoch; read it off the round child.
			for _, s := range t.Spans {
				if s.Name == "round" && s.Attrs["epoch"] != "" {
					v.Epoch = s.Attrs["epoch"]
					break
				}
			}
		}
	}
	if outliers != nil {
		v.Outliers = outliers.Outliers()
		v.ClusterMedian = outliers.ClusterMedian()
		v.PeerP99 = map[string]time.Duration{}
		for _, p := range outliers.Peers() {
			v.PeerP99[p] = outliers.P99(p)
		}
	}
	return v
}

// RenderTop renders the live cluster view as fixed-width ASCII. Pure: the
// same view renders to the same bytes.
func RenderTop(v TopView, width int) string {
	if width < 40 {
		width = 40
	}
	var b strings.Builder

	total := 0
	for _, s := range v.Sources {
		total += s.Spans
	}
	fmt.Fprintf(&b, "dvdc cluster telemetry — %d source(s)\n", len(v.Sources))
	if len(v.Sources) > 0 {
		fmt.Fprintf(&b, "  %-24s %-4s %6s %9s %7s %7s %9s\n",
			"SOURCE", "UP", "OPEN", "DROPPED", "SPANS", "DEDUP", "SAVED")
		for _, s := range v.Sources {
			up := "ok"
			if !s.Up {
				up = "DOWN"
			}
			fmt.Fprintf(&b, "  %-24s %-4s %6d %9d %7d %7d %9s\n",
				s.Addr, up, s.OpenSpans, s.Dropped, s.Spans, s.DedupHits, humanBytes(s.DedupSaved))
			if s.Err != "" {
				fmt.Fprintf(&b, "      %s\n", s.Err)
			}
		}
	}

	b.WriteByte('\n')
	if v.Trace == 0 {
		b.WriteString("no round trace collected yet\n")
		return b.String()
	}
	verdict := "CLOSED"
	if !v.Closed {
		verdict = "OPEN"
	}
	fmt.Fprintf(&b, "round trace %016x", v.Trace)
	if v.Epoch != "" {
		fmt.Fprintf(&b, "  epoch %s", v.Epoch)
	}
	fmt.Fprintf(&b, "  wall %v  [%s]\n", v.Wall.Round(time.Microsecond), verdict)
	if v.VerifyErr != "" {
		fmt.Fprintf(&b, "  verify: %s\n", v.VerifyErr)
	}

	if v.Attr != nil && len(v.Attr.Lanes) > 0 {
		barW := width - 40
		if barW < 8 {
			barW = 8
		}
		fmt.Fprintf(&b, "  %-8s %-12s %5s  %s\n", "LANE", "BUSY", "SPANS", "SHARE")
		for _, lt := range v.Attr.Lanes {
			mark := " "
			if lt.Lane == v.Attr.Straggler {
				mark = "*"
			}
			bar := ""
			if v.Wall > 0 {
				n := int(float64(barW) * float64(lt.Busy) / float64(v.Wall))
				if n > barW {
					n = barW
				}
				if n < 1 && lt.Busy > 0 {
					n = 1
				}
				bar = strings.Repeat("#", n)
			}
			line := fmt.Sprintf(" %s%-8s %-12v %5d  %s", mark, lt.Lane, lt.Busy.Round(time.Microsecond), lt.Spans, bar)
			b.WriteString(strings.TrimRight(line, " "))
			b.WriteByte('\n')
		}
		fmt.Fprintf(&b, "  %s\n", v.Attr.String())
	}

	if len(v.PeerP99) > 0 {
		peers := make([]string, 0, len(v.PeerP99))
		for p := range v.PeerP99 {
			peers = append(peers, p)
		}
		sort.Strings(peers)
		fmt.Fprintf(&b, "\n  peer p99 (cluster median %v):\n", v.ClusterMedian.Round(time.Microsecond))
		flagged := map[string]bool{}
		for _, p := range v.Outliers {
			flagged[p] = true
		}
		for _, p := range peers {
			note := ""
			if flagged[p] {
				note = "  << OUTLIER"
			}
			fmt.Fprintf(&b, "    %-8s %v%s\n", p, v.PeerP99[p].Round(time.Microsecond), note)
		}
	}
	return b.String()
}

// RenderPostmortem renders a flight-recorder bundle for `dvdcctl postmortem`:
// header (with the span count and how to render the spans), entry-kind and
// error tallies, the last tail entries, and the last errored entries and
// spans. Pure: rendering depends only on the bundle and tail.
func RenderPostmortem(b *obs.Bundle, tail int) string {
	if tail <= 0 {
		tail = 40
	}
	var w strings.Builder
	fmt.Fprintf(&w, "postmortem bundle %s\n", b.Path)
	fmt.Fprintf(&w, "  reason:  %s\n", b.Meta.Reason)
	fmt.Fprintf(&w, "  time:    %s\n", b.Meta.Time.Format(time.RFC3339Nano))
	fmt.Fprintf(&w, "  pid:     %d\n", b.Meta.HostedPID)
	fmt.Fprintf(&w, "  entries: %d (%d evicted before dump)\n", b.Meta.Entries, b.Meta.Dropped)
	fmt.Fprintf(&w, "  spans:   %d", len(b.Spans))
	if len(b.Spans) > 0 {
		fmt.Fprintf(&w, " (render with: dvdcctl trace -in %s)", filepath.Join(b.Path, "spans.jsonl"))
	}
	w.WriteByte('\n')
	if len(b.Meta.Meta) > 0 {
		keys := make([]string, 0, len(b.Meta.Meta))
		for k := range b.Meta.Meta {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&w, "  %s: %v\n", k, b.Meta.Meta[k])
		}
	}

	kinds := map[string]int{}
	errs := 0
	var errored []obs.FlightEntry
	for _, e := range b.Entries {
		kinds[e.Kind]++
		if e.Err != "" {
			errs++
			errored = append(errored, e)
		}
	}
	kindKeys := make([]string, 0, len(kinds))
	for k := range kinds {
		kindKeys = append(kindKeys, k)
	}
	sort.Strings(kindKeys)
	w.WriteString("\n  kinds:")
	for _, k := range kindKeys {
		fmt.Fprintf(&w, " %s=%d", k, kinds[k])
	}
	fmt.Fprintf(&w, "  errors=%d\n", errs)

	start := len(b.Entries) - tail
	if start < 0 {
		start = 0
	}
	fmt.Fprintf(&w, "\nlast %d entries:\n", len(b.Entries)-start)
	for _, e := range b.Entries[start:] {
		fmt.Fprintf(&w, "  %s\n", e.String())
	}

	const maxErrs = 10
	if len(errored) > 0 {
		errored = errored[max(len(errored)-maxErrs, 0):]
		fmt.Fprintf(&w, "\nerrored entries (last %d):\n", len(errored))
		for _, e := range errored {
			fmt.Fprintf(&w, "  %s\n", e.String())
		}
	}
	var erroredSpans []obs.Span
	for _, s := range b.Spans {
		if s.Err != "" {
			erroredSpans = append(erroredSpans, s)
		}
	}
	if len(erroredSpans) > 0 {
		erroredSpans = erroredSpans[max(len(erroredSpans)-maxErrs, 0):]
		fmt.Fprintf(&w, "\nerrored spans (last %d):\n", len(erroredSpans))
		for _, s := range erroredSpans {
			fmt.Fprintf(&w, "  %s  %s", s.End.Format("15:04:05.000000"), s.Name)
			if s.Lane != "" {
				fmt.Fprintf(&w, " [%s]", s.Lane)
			}
			if p := s.Attrs["peer"]; p != "" {
				fmt.Fprintf(&w, " peer=%s", p)
			}
			fmt.Fprintf(&w, " %v trace=%016x ERR=%s\n", s.Duration().Round(time.Microsecond), s.Trace, s.Err)
		}
	}
	if b.Metrics != "" {
		fmt.Fprintf(&w, "\nmetrics snapshot: %d series lines (see metrics.prom)\n", countSamples(b.Metrics))
	}
	return w.String()
}

// humanBytes renders a byte count with a binary-prefix unit, compact enough
// for a fixed-width column.
func humanBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// countSamples counts non-comment sample lines in a Prometheus exposition.
func countSamples(exposition string) int {
	n := 0
	for _, line := range strings.Split(exposition, "\n") {
		if line != "" && !strings.HasPrefix(line, "#") {
			n++
		}
	}
	return n
}
