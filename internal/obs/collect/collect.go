// Package collect is the cluster-wide half of the observability layer: a
// collector that gathers spans and metrics from every process of a DVDC
// cluster (pulling each node's -obs-addr endpoint over HTTP, or accepting
// in-process pushes), merges cross-process spans by trace id into one round
// tree, verifies the merged tree is single-rooted and closed, and runs
// per-round critical-path attribution that names the node a round's
// wall-clock went to. stdchk's lesson applies: aggregate numbers are only
// trustworthy with per-contributor attribution, so everything here keeps the
// per-node breakdown next to the cluster total.
package collect

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"dvdc/internal/obs"
)

// spanKey identifies one span globally: ids are minted per process with a
// random base, so (trace, span) collisions across processes are negligible
// and a re-scrape of the same span dedupes to one entry.
type spanKey struct {
	trace, id uint64
}

// Collector accumulates spans from many sources and serves merged,
// canonically ordered trace trees. Merging is idempotent and order
// independent: feeding the same span set in any arrival order — or scraping
// the same endpoint twice — yields byte-identical trees. Safe for
// concurrent use.
type Collector struct {
	mu    sync.Mutex
	spans map[spanKey]obs.Span

	client *http.Client
}

// New builds an empty collector.
func New() *Collector {
	return &Collector{
		spans:  map[spanKey]obs.Span{},
		client: &http.Client{Timeout: 5 * time.Second},
	}
}

// Add merges spans pushed from in-process sources (the coordinator's own
// tracer, a JSONL file) and returns how many were new. Duplicate (trace,
// span) keys resolve deterministically regardless of arrival order: the copy
// with the later End wins (a span scraped mid-flight then re-scraped
// finished), ties broken by the lexically larger canonical encoding.
func (c *Collector) Add(spans ...obs.Span) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	added := 0
	for _, s := range spans {
		k := spanKey{s.Trace, s.ID}
		old, ok := c.spans[k]
		if !ok {
			c.spans[k] = s
			added++
			continue
		}
		if preferSpan(s, old) {
			c.spans[k] = s
		}
	}
	return added
}

// preferSpan decides deterministically which of two copies of one span to
// keep. It must be a strict order on distinct copies so that merge results
// do not depend on arrival order.
func preferSpan(a, b obs.Span) bool {
	if !a.End.Equal(b.End) {
		return a.End.After(b.End)
	}
	ab, _ := json.Marshal(a)
	bb, _ := json.Marshal(b)
	return string(ab) > string(bb)
}

// ScrapeSpans pulls one endpoint's /spans document (addr is the host:port of
// its -obs-addr) and merges it. Returns how many spans were new.
func (c *Collector) ScrapeSpans(addr string) (int, error) {
	resp, err := c.client.Get("http://" + addr + "/spans")
	if err != nil {
		return 0, fmt.Errorf("collect: scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("collect: scrape %s: HTTP %d", addr, resp.StatusCode)
	}
	var spans []obs.Span
	if err := json.NewDecoder(resp.Body).Decode(&spans); err != nil {
		return 0, fmt.Errorf("collect: scrape %s: %w", addr, err)
	}
	return c.Add(spans...), nil
}

// ScrapeMetrics pulls one endpoint's raw Prometheus exposition.
func (c *Collector) ScrapeMetrics(addr string) (string, error) {
	resp, err := c.client.Get("http://" + addr + "/metrics")
	if err != nil {
		return "", fmt.Errorf("collect: scrape %s: %w", addr, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("collect: scrape %s: HTTP %d", addr, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

// Len returns how many distinct spans the collector holds.
func (c *Collector) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spans)
}

// Spans returns every merged span in canonical order.
func (c *Collector) Spans() []obs.Span {
	c.mu.Lock()
	out := make([]obs.Span, 0, len(c.spans))
	for _, s := range c.spans {
		out = append(out, s)
	}
	c.mu.Unlock()
	sortCanonical(out)
	return out
}

// Tree builds the merged tree of one trace (nil when the collector holds no
// spans of it).
func (c *Collector) Tree(trace uint64) *Tree {
	var spans []obs.Span
	c.mu.Lock()
	for k, s := range c.spans {
		if k.trace == trace {
			spans = append(spans, s)
		}
	}
	c.mu.Unlock()
	if len(spans) == 0 {
		return nil
	}
	return BuildTree(spans)
}

// LatestRound returns the trace id of the most recently started span tree
// whose root is named rootName ("round" for checkpoint rounds); 0 when none.
func (c *Collector) LatestRound(rootName string) uint64 {
	var best uint64
	var bestStart time.Time
	for _, s := range c.Spans() {
		if s.Parent == 0 && s.Name == rootName && (best == 0 || s.Start.After(bestStart)) {
			best, bestStart = s.Trace, s.Start
		}
	}
	return best
}

// sortCanonical orders spans by (trace, start, id): the one true order every
// rendering and marshaling uses, so merged output is reproducible.
func sortCanonical(spans []obs.Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].Trace != spans[j].Trace {
			return spans[i].Trace < spans[j].Trace
		}
		if !spans[i].Start.Equal(spans[j].Start) {
			return spans[i].Start.Before(spans[j].Start)
		}
		return spans[i].ID < spans[j].ID
	})
}

// Tree is one trace's merged span set in canonical order, with the parent
// index resolved.
type Tree struct {
	Trace uint64
	Spans []obs.Span // canonical order (start, id)

	root     int              // index of the root span, -1 when not single-rooted
	children map[uint64][]int // span id -> child indexes, canonical order
}

// BuildTree merges (deduping exactly like Collector.Add) and canonically
// orders one trace's spans.
func BuildTree(spans []obs.Span) *Tree {
	byKey := map[spanKey]obs.Span{}
	for _, s := range spans {
		k := spanKey{s.Trace, s.ID}
		if old, ok := byKey[k]; !ok || preferSpan(s, old) {
			byKey[k] = s
		}
	}
	uniq := make([]obs.Span, 0, len(byKey))
	for _, s := range byKey {
		uniq = append(uniq, s)
	}
	sortCanonical(uniq)
	t := &Tree{Spans: uniq, root: -1, children: map[uint64][]int{}}
	if len(uniq) > 0 {
		t.Trace = uniq[0].Trace
	}
	byID := map[uint64]int{}
	for i, s := range uniq {
		byID[s.ID] = i
	}
	for i, s := range uniq {
		if s.Parent == 0 {
			if t.root == -1 {
				t.root = i
			} else {
				t.root = -2 // more than one root
			}
			continue
		}
		if _, ok := byID[s.Parent]; ok && s.Parent != s.ID {
			t.children[s.Parent] = append(t.children[s.Parent], i)
		}
	}
	if t.root == -2 {
		t.root = -1
	}
	return t
}

// Root returns the root span (nil when the tree is not single-rooted).
func (t *Tree) Root() *obs.Span {
	if t.root < 0 || t.root >= len(t.Spans) {
		return nil
	}
	return &t.Spans[t.root]
}

// Children returns the child indexes of one span id, canonical order.
func (t *Tree) Children(id uint64) []int { return t.children[id] }

// Verify checks the merged tree is a well-formed round trace: non-empty, all
// spans on one trace id, exactly one root, every non-root span's parent
// recorded (closed — no orphan whose parent was lost to scrape timing or a
// dropped ring entry), and every span reachable from the root (no cycles).
func (t *Tree) Verify() error {
	if len(t.Spans) == 0 {
		return fmt.Errorf("collect: empty trace")
	}
	roots := 0
	for _, s := range t.Spans {
		if s.Trace != t.Trace {
			return fmt.Errorf("collect: trace %016x: span %q carries foreign trace id %016x", t.Trace, s.Name, s.Trace)
		}
		if s.Parent == 0 {
			roots++
		}
	}
	if roots != 1 {
		return fmt.Errorf("collect: trace %016x: %d roots, want 1", t.Trace, roots)
	}
	byID := map[uint64]bool{}
	for _, s := range t.Spans {
		byID[s.ID] = true
	}
	for _, s := range t.Spans {
		if s.Parent != 0 && !byID[s.Parent] {
			return fmt.Errorf("collect: trace %016x: span %q (%x) orphaned: parent %x never collected",
				t.Trace, s.Name, s.ID, s.Parent)
		}
	}
	seen := map[uint64]bool{}
	var walk func(i int)
	walk = func(i int) {
		s := t.Spans[i]
		if seen[s.ID] {
			return
		}
		seen[s.ID] = true
		for _, ci := range t.children[s.ID] {
			walk(ci)
		}
	}
	walk(t.root)
	if len(seen) != len(t.Spans) {
		return fmt.Errorf("collect: trace %016x: %d of %d spans unreachable from root (parent cycle)",
			t.Trace, len(t.Spans)-len(seen), len(t.Spans))
	}
	return nil
}

// Marshal renders the tree as canonical JSONL — one span per line in
// canonical order. Byte-identical for the same span set regardless of the
// order spans arrived in (the determinism contract merging is tested on).
func (t *Tree) Marshal() ([]byte, error) {
	var b strings.Builder
	for _, s := range t.Spans {
		line, err := json.Marshal(s)
		if err != nil {
			return nil, err
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return []byte(b.String()), nil
}

// Wall returns the tree's wall-clock extent (root duration when
// single-rooted, else the span hull).
func (t *Tree) Wall() time.Duration {
	if r := t.Root(); r != nil {
		return r.Duration()
	}
	t0, t1 := t.extent()
	return t1.Sub(t0)
}

// extent returns the span hull: the earliest start and the latest end (zero
// times for an empty tree).
func (t *Tree) extent() (t0, t1 time.Time) {
	for i, s := range t.Spans {
		if i == 0 || s.Start.Before(t0) {
			t0 = s.Start
		}
		if i == 0 || s.End.After(t1) {
			t1 = s.End
		}
	}
	return t0, t1
}

// row is one span in tree order: depth levels below its top row, on lane —
// its own lane, else its nearest ancestor's.
type row struct {
	span  *obs.Span
	depth int
	lane  string
}

// rows lists the spans in tree order: top rows — the root and every span
// whose parent is absent or itself — in canonical order, each followed
// depth-first by its children in canonical order. A span is listed at most
// once, so no parent cycle can loop the walk.
func (t *Tree) rows() []row {
	byID := make(map[uint64]bool, len(t.Spans))
	for _, s := range t.Spans {
		byID[s.ID] = true
	}
	rows := make([]row, 0, len(t.Spans))
	seen := make(map[uint64]bool, len(t.Spans))
	var walk func(i, depth int, lane string)
	walk = func(i, depth int, lane string) {
		s := &t.Spans[i]
		if seen[s.ID] {
			return
		}
		seen[s.ID] = true
		if s.Lane != "" {
			lane = s.Lane
		}
		rows = append(rows, row{span: s, depth: depth, lane: lane})
		for _, ci := range t.children[s.ID] {
			walk(ci, depth+1, lane)
		}
	}
	for i, s := range t.Spans {
		if s.Parent == 0 || s.Parent == s.ID || !byID[s.Parent] {
			walk(i, 0, "")
		}
	}
	return rows
}

// MetricValue extracts one sample from a Prometheus text exposition: the
// series named name with no labels, or — when labels are given as
// "key=value" strings — the series carrying exactly those label pairs among
// its labels. Returns false when absent. This is the thin slice of parsing
// the top view needs from scraped endpoints, not a general parser.
func MetricValue(exposition, name string, labels ...string) (float64, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		rest, ok := strings.CutPrefix(line, name)
		if !ok {
			continue
		}
		// rest is "{labels} value", " value", or this was a longer name.
		var labelPart string
		switch {
		case strings.HasPrefix(rest, "{"):
			end := strings.Index(rest, "}")
			if end < 0 {
				continue
			}
			labelPart, rest = rest[1:end], rest[end+1:]
		case strings.HasPrefix(rest, " "):
		default:
			continue
		}
		if len(labels) > 0 {
			match := true
			for _, want := range labels {
				k, v, _ := strings.Cut(want, "=")
				if !strings.Contains(labelPart, fmt.Sprintf("%s=%q", k, v)) {
					match = false
					break
				}
			}
			if !match {
				continue
			}
		}
		f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
		if err != nil {
			continue
		}
		return f, true
	}
	return 0, false
}
