package collect

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"dvdc/internal/obs"
)

// LaneTime is one lane's (one cluster member's) share of a round.
type LaneTime struct {
	Lane  string
	Busy  time.Duration // self time: span durations minus the time their children cover
	Spans int
}

// PathStep is one hop of a round's critical path.
type PathStep struct {
	Name string
	Lane string
	Self time.Duration // this span's duration not covered by its children
	Dur  time.Duration
}

// Attribution is the per-round answer to "where did the wall-clock go": the
// critical path through the merged tree, per-lane self-time totals, and the
// named straggler — the non-coordinator lane owning the largest self-time on
// the critical path. A chaos delay fault on one peer's link shows up here as
// that peer's rpc span dominating the path.
type Attribution struct {
	Trace    uint64
	Wall     time.Duration
	RootLane string

	Straggler     string        // lane of the slowest member ("" when nothing off the root lane)
	StragglerSpan string        // span name the straggler's time sat in
	StragglerDur  time.Duration // that span's critical-path self time

	Lanes []LaneTime // descending by Busy, ties by lane name
	Path  []PathStep // root first
}

// laneOf resolves the lane a span's time belongs to: an explicit "peer"
// attribute wins (pool rpc spans run on the caller but wait on the peer),
// then the span's own lane, then the lane inherited from its parent.
func laneOf(s obs.Span, inherited string) string {
	if p := s.Attrs["peer"]; p != "" {
		return p
	}
	if s.Lane != "" {
		return s.Lane
	}
	return inherited
}

// selfTime is span i's duration minus the union of its child intervals,
// clipped to the span: parallel children (a fan-out) cover their parent's
// time once, not once each. Children come in canonical order, by start.
func (t *Tree) selfTime(i int) time.Duration {
	s := t.Spans[i]
	var covered time.Duration
	end := s.Start // the covered prefix of the span so far
	for _, ci := range t.Children(s.ID) {
		c := t.Spans[ci]
		from, to := c.Start, c.End
		if from.Before(end) {
			from = end
		}
		if to.After(s.End) {
			to = s.End
		}
		if to.After(from) {
			covered += to.Sub(from)
			end = to
		}
	}
	return max(s.Duration()-covered, 0)
}

// Attribute runs critical-path analysis over a merged round tree. Returns
// nil when the tree has no single root. Deterministic for a given tree.
func Attribute(t *Tree) *Attribution {
	if t == nil {
		return nil
	}
	root := t.Root()
	if root == nil {
		return nil
	}
	a := &Attribution{Trace: t.Trace, Wall: root.Duration(), RootLane: root.Lane}

	// Per-lane self time over the whole tree.
	lanes := map[string]*LaneTime{}
	var account func(i int, inherited string)
	account = func(i int, inherited string) {
		s := t.Spans[i]
		lane := laneOf(s, inherited)
		for _, ci := range t.Children(s.ID) {
			// Children inherit the span's own lane, not the peer attribution:
			// a handler span under an rpc span owns its own time.
			inh := s.Lane
			if inh == "" {
				inh = inherited
			}
			account(ci, inh)
		}
		lt := lanes[lane]
		if lt == nil {
			lt = &LaneTime{Lane: lane}
			lanes[lane] = lt
		}
		lt.Busy += t.selfTime(i)
		lt.Spans++
	}
	account(t.root, root.Lane)
	for _, lt := range lanes {
		a.Lanes = append(a.Lanes, *lt)
	}
	sort.Slice(a.Lanes, func(i, j int) bool {
		if a.Lanes[i].Busy != a.Lanes[j].Busy {
			return a.Lanes[i].Busy > a.Lanes[j].Busy
		}
		return a.Lanes[i].Lane < a.Lanes[j].Lane
	})

	// Critical path: from the root, repeatedly descend into the child that
	// finished last (ties broken by span id, so the path is deterministic).
	i, inherited := t.root, root.Lane
	for {
		s := t.Spans[i]
		a.Path = append(a.Path, PathStep{Name: s.Name, Lane: laneOf(s, inherited), Self: t.selfTime(i), Dur: s.Duration()})
		kids := t.Children(s.ID)
		if len(kids) == 0 {
			break
		}
		next := kids[0]
		for _, ci := range kids[1:] {
			cs, ns := t.Spans[ci], t.Spans[next]
			if cs.End.After(ns.End) || (cs.End.Equal(ns.End) && cs.ID > ns.ID) {
				next = ci
			}
		}
		if s.Lane != "" {
			inherited = s.Lane
		}
		i = next
	}

	// The straggler is the critical-path step off the root's lane holding the
	// most self time: the member the round actually waited on.
	for _, st := range a.Path {
		if st.Lane == a.RootLane || st.Lane == "" {
			continue
		}
		if st.Self > a.StragglerDur {
			a.Straggler, a.StragglerSpan, a.StragglerDur = st.Lane, st.Name, st.Self
		}
	}
	return a
}

// Export publishes the attribution to reg: increments
// dvdc_round_straggler_total{node=...} and sets dvdc_round_straggler_seconds
// to the straggler's critical-path self time. No-op without a straggler.
func (a *Attribution) Export(reg *obs.Registry) {
	if a == nil || reg == nil || a.Straggler == "" {
		return
	}
	reg.Counter("dvdc_round_straggler_total", "node", a.Straggler).Inc()
	// Gauges are integer-valued here; a func series carries the float seconds.
	sec := a.StragglerDur.Seconds()
	reg.GaugeFunc("dvdc_round_straggler_seconds", func() float64 { return sec })
}

// String renders a one-line verdict ("straggler node2 (rpc MsgCommit, 41ms of
// 50ms round)"); "balanced round" when no straggler stood out.
func (a *Attribution) String() string {
	if a == nil {
		return "no attribution"
	}
	if a.Straggler == "" {
		return fmt.Sprintf("balanced round (%v wall)", a.Wall.Round(time.Microsecond))
	}
	return fmt.Sprintf("straggler %s (%s, %v of %v round)",
		a.Straggler, a.StragglerSpan,
		a.StragglerDur.Round(time.Microsecond), a.Wall.Round(time.Microsecond))
}

// OutlierTracker keeps a rolling latency window per peer and flags peers
// whose p99 drifts past a multiple of the cluster median p99 — the
// cross-sectional complement to per-round attribution: a straggler names who
// slowed one round, an outlier names who is slow habitually.
type OutlierTracker struct {
	mu     sync.Mutex
	byPeer map[string]*obs.Ring[time.Duration]
	order  []string
	reg    *obs.Registry
}

// The outlier tracker's fixed tuning.
const (
	outlierWindow  = 256 // latency samples kept per peer
	outlierFactor  = 3   // a peer is an outlier past this multiple of the cluster median p99
	outlierMinimum = 8   // samples a peer needs before it can be flagged
)

// NewOutlierTracker builds a tracker keeping the last outlierWindow samples
// per peer and flagging peers whose p99 exceeds outlierFactor x the cluster
// median p99. Safe for concurrent use — the exported gauge funcs read it
// from the /metrics handler's goroutine.
func NewOutlierTracker() *OutlierTracker {
	return &OutlierTracker{byPeer: map[string]*obs.Ring[time.Duration]{}}
}

// SetRegistry attaches a registry; each peer's rolling p99 and outlier flag
// are exported as dvdc_peer_latency_p99_seconds{peer=...} and
// dvdc_peer_latency_outlier{peer=...} gauge funcs bound on first sight.
func (o *OutlierTracker) SetRegistry(reg *obs.Registry) {
	if o == nil {
		return
	}
	o.mu.Lock()
	o.reg = reg
	o.mu.Unlock()
}

// Observe records one latency sample for peer.
func (o *OutlierTracker) Observe(peer string, d time.Duration) {
	if o == nil || peer == "" {
		return
	}
	o.mu.Lock()
	r := o.byPeer[peer]
	var reg *obs.Registry
	if r == nil {
		r = obs.NewRing[time.Duration](outlierWindow)
		o.byPeer[peer] = r
		o.order = append(o.order, peer)
		sort.Strings(o.order)
		reg = o.reg
	}
	o.mu.Unlock()
	if reg != nil {
		p := peer
		reg.GaugeFunc("dvdc_peer_latency_p99_seconds", func() float64 {
			return o.P99(p).Seconds()
		}, "peer", p)
		reg.GaugeFunc("dvdc_peer_latency_outlier", func() float64 {
			if o.IsOutlier(p) {
				return 1
			}
			return 0
		}, "peer", p)
	}
	r.Push(d)
}

// ObserveSpans feeds every pool rpc span (name "rpc ...", attr "peer") from a
// merged span set into the per-peer windows.
func (o *OutlierTracker) ObserveSpans(spans []obs.Span) {
	if o == nil {
		return
	}
	for _, s := range spans {
		if p := s.Attrs["peer"]; p != "" && len(s.Name) > 4 && s.Name[:4] == "rpc " {
			o.Observe(p, s.Duration())
		}
	}
}

// ObserveDataSpans feeds only bulk data-plane rpc spans — the delta-chunk
// ships — into the per-peer windows. Control rpc spans measure
// the remote handler's whole duration, and a member's prepare handler
// includes its own downstream ship stalls: one slow keeper smears into every
// shipping member's control latency, the cluster median chases the fault,
// and no peer ever crosses the outlier factor. A data ship instead
// attributes a transfer to the peer that absorbed it, which is the signal
// that isolates a slow keeper from the members it slows down. Feed this
// (not ObserveSpans) when the windows drive placement decisions.
func (o *OutlierTracker) ObserveDataSpans(spans []obs.Span) {
	if o == nil {
		return
	}
	for _, s := range spans {
		if s.Name != "rpc delta-chunk" {
			continue
		}
		if p := s.Attrs["peer"]; p != "" {
			o.Observe(p, s.Duration())
		}
	}
}

// Peers lists tracked peers, sorted.
func (o *OutlierTracker) Peers() []string {
	if o == nil {
		return nil
	}
	o.mu.Lock()
	defer o.mu.Unlock()
	return append([]string(nil), o.order...)
}

// P99 returns peer's rolling 99th percentile latency (0 when unseen).
func (o *OutlierTracker) P99(peer string) time.Duration {
	if o == nil {
		return 0
	}
	o.mu.Lock()
	r := o.byPeer[peer]
	o.mu.Unlock()
	if r == nil {
		return 0
	}
	samples := r.Snapshot()
	if len(samples) == 0 {
		return 0
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	idx := (len(samples)*99 + 99) / 100
	if idx > len(samples) {
		idx = len(samples)
	}
	return samples[idx-1]
}

// ClusterMedian returns the median of per-peer p99s — the cluster's "normal".
func (o *OutlierTracker) ClusterMedian() time.Duration {
	peers := o.Peers()
	if len(peers) == 0 {
		return 0
	}
	p99s := make([]time.Duration, 0, len(peers))
	for _, p := range peers {
		p99s = append(p99s, o.P99(p))
	}
	sort.Slice(p99s, func(i, j int) bool { return p99s[i] < p99s[j] })
	// Lower-middle on even counts: in a two-peer cluster the upper-middle
	// would be the slow peer itself, which could then never be flagged.
	return p99s[(len(p99s)-1)/2]
}

// IsOutlier reports whether peer's p99 exceeds outlierFactor x the cluster
// median (false until the peer has outlierMinimum samples, so startup noise
// never flags).
func (o *OutlierTracker) IsOutlier(peer string) bool {
	if o == nil {
		return false
	}
	o.mu.Lock()
	r := o.byPeer[peer]
	o.mu.Unlock()
	if r == nil || r.Len() < outlierMinimum {
		return false
	}
	med := o.ClusterMedian()
	if med <= 0 {
		return false
	}
	return float64(o.P99(peer)) > outlierFactor*float64(med)
}

// Outliers lists currently flagged peers, sorted.
func (o *OutlierTracker) Outliers() []string {
	var out []string
	for _, p := range o.Peers() {
		if o.IsOutlier(p) {
			out = append(out, p)
		}
	}
	return out
}
