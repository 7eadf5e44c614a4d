// Package health is the cluster health engine: a background evaluator that
// scrapes the process's metrics registry on a fixed tick into bounded
// per-signal time-series rings and evaluates declarative SLO rules with
// multi-window burn-rate alerting (a fast window for responsiveness, a slow
// window to suppress one-sample blips; firing→resolved state machine).
// Results are exported as dvdc_slo_*/dvdc_alert_* metrics, a JSON document on
// /api/v1/health and /healthz?verbose=1, and alert transitions are marked as
// spans so postmortem bundles explain why they were dumped. The evaluator is
// fully deterministic under Options.FixedStep, which replaces the wall clock
// with a virtual one advanced manually by Tick.
package health

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"dvdc/internal/obs"
)

// Alert states. OK means the rule has never fired (or data vanished);
// Resolved means it fired earlier and the fast window has recovered.
const (
	StateOK       = "ok"
	StateFiring   = "firing"
	StateResolved = "resolved"
)

// SignalKind says how a signal's samples turn into a windowed measure.
type SignalKind uint8

const (
	// KindGauge signals measure the mean of the window's samples.
	KindGauge SignalKind = iota + 1
	// KindCounter signals measure the per-second rate across the window.
	KindCounter
	// KindHist signals snapshot a cumulative histogram each tick and measure
	// a quantile of the bucket deltas inside the window — a true windowed
	// p99, not the forever-cumulative one, so alerts can resolve.
	KindHist
)

// Signal is one scraped time series. Exactly one of Probe/HistProbe must be
// set, matching Kind. A probe returning ok=false records a "no data" sample.
type Signal struct {
	Name      string
	Kind      SignalKind
	Probe     func() (float64, bool)
	HistProbe func() (obs.HistSnapshot, bool)
}

// Rule is one declarative SLO: the windowed measure of Signal must stay at or
// under Objective. Burn rate is measure/Objective; the rule fires when the
// fast AND slow windows both burn at or above 1, and resolves when the fast
// window drops back under 1. Windows shorter than the tick interval are
// rounded up to one tick; both must fit inside the evaluator's retention.
type Rule struct {
	Name      string
	Signal    string
	Objective float64 // must be > 0
	Quantile  float64 // KindHist only; default 0.99
	Unit      string  // "s" renders values as durations in reports

	FastWindow time.Duration // default 10s
	SlowWindow time.Duration // default 40s
	MinSamples int           // observations required in the fast window; default 1
}

// Options tune an Evaluator.
type Options struct {
	Registry *obs.Registry // exports dvdc_slo_*/dvdc_alert_* and serves /healthz
	Tracer   *obs.Tracer   // each alert transition is an instant root span in lane "health" (the transition record)

	Interval time.Duration // tick period; default 1s

	// FixedStep enables deterministic mode: the evaluator starts its virtual
	// clock at the Unix epoch and advances it by FixedStep on every manual
	// Tick. Start refuses to run in this mode.
	FixedStep time.Duration
}

// retention is the span of each signal's ring: every rule window must fit
// inside it.
const retention = 5 * time.Minute

// RuleStatus is one rule's current evaluation in a Report.
type RuleStatus struct {
	Name      string    `json:"name"`
	Signal    string    `json:"signal"`
	State     string    `json:"state"`
	Since     time.Time `json:"since,omitempty"`
	Value     float64   `json:"value"`
	Objective float64   `json:"objective"`
	Unit      string    `json:"unit,omitempty"`
	BurnFast  float64   `json:"burn_fast"`
	BurnSlow  float64   `json:"burn_slow"`
	Samples   int       `json:"samples"`
	Fired     int64     `json:"fired"`
}

// Report is the JSON document served on /api/v1/health.
type Report struct {
	Time    time.Time    `json:"time"`
	Healthy bool         `json:"healthy"`
	Ticks   int64        `json:"ticks"`
	Rules   []RuleStatus `json:"rules"`
}

// sample is one scraped point of one signal.
type sample struct {
	t    time.Time
	v    float64
	hist obs.HistSnapshot
	ok   bool
}

// signalState is a signal plus its bounded ring, oldest first.
type signalState struct {
	sig     Signal
	samples []sample
	cap     int
}

func (s *signalState) push(p sample) {
	s.samples = append(s.samples, p)
	if len(s.samples) > s.cap {
		copy(s.samples, s.samples[len(s.samples)-s.cap:])
		s.samples = s.samples[:s.cap]
	}
}

// ruleState is a rule plus its alert state machine.
type ruleState struct {
	rule  Rule
	state string
	since time.Time
	fired int64

	value, burnFast, burnSlow float64
	samples                   int
}

// Evaluator runs the health engine. All exported methods are safe for
// concurrent use; a nil Evaluator is inert.
type Evaluator struct {
	opts Options

	mu      sync.Mutex
	signals map[string]*signalState
	order   []string
	rules   []*ruleState
	ticks   int64
	vclock  time.Time // FixedStep virtual clock

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// New builds an evaluator and, when a registry is present, installs itself as
// the /healthz provider. Add signals and rules before the first Tick/Start.
func New(opts Options) *Evaluator {
	if opts.Interval <= 0 {
		opts.Interval = time.Second
	}
	e := &Evaluator{
		opts:    opts,
		signals: map[string]*signalState{},
		stop:    make(chan struct{}),
		done:    make(chan struct{}),
		vclock:  time.Unix(0, 0).UTC(),
	}
	if opts.Registry != nil {
		opts.Registry.SetHealthz(func(verbose bool) (bool, any) {
			rep := e.Report()
			return rep.Healthy, rep
		})
	}
	return e
}

// AddSignal registers one scraped series. Duplicate names panic: signal sets
// are authored in code, so a clash is a programming error.
func (e *Evaluator) AddSignal(s Signal) {
	if e == nil {
		return
	}
	if s.Name == "" || (s.Probe == nil) == (s.HistProbe == nil) {
		panic(fmt.Sprintf("health: signal %q needs a name and exactly one probe", s.Name))
	}
	capacity := int(retention/e.opts.Interval) + 2
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := e.signals[s.Name]; dup {
		panic(fmt.Sprintf("health: signal %q registered twice", s.Name))
	}
	e.signals[s.Name] = &signalState{sig: s, cap: capacity}
	e.order = append(e.order, s.Name)
}

// AddRule registers one SLO rule over a previously added signal.
func (e *Evaluator) AddRule(r Rule) {
	if e == nil {
		return
	}
	if r.Objective <= 0 {
		panic(fmt.Sprintf("health: rule %q needs a positive objective", r.Name))
	}
	if r.Quantile <= 0 || r.Quantile > 1 {
		r.Quantile = 0.99
	}
	if r.FastWindow <= 0 {
		r.FastWindow = 10 * time.Second
	}
	if r.SlowWindow <= 0 {
		r.SlowWindow = 40 * time.Second
	}
	if r.MinSamples <= 0 {
		r.MinSamples = 1
	}
	e.mu.Lock()
	if _, ok := e.signals[r.Signal]; !ok {
		e.mu.Unlock()
		panic(fmt.Sprintf("health: rule %q references unknown signal %q", r.Name, r.Signal))
	}
	rs := &ruleState{rule: r, state: StateOK}
	e.rules = append(e.rules, rs)
	e.mu.Unlock()
	// Register the func series outside e.mu: GaugeFunc takes the registry
	// lock, and a concurrent scrape holds it while reading funcs that take
	// e.mu — holding both here is the lock-order inversion.
	e.export(rs)
}

// export registers the rule's dvdc_slo_*/dvdc_alert_* func series.
func (e *Evaluator) export(rs *ruleState) {
	reg := e.opts.Registry
	if reg == nil {
		return
	}
	name := rs.rule.Name
	read := func(f func(*ruleState) float64) func() float64 {
		return func() float64 {
			e.mu.Lock()
			defer e.mu.Unlock()
			return f(rs)
		}
	}
	reg.GaugeFunc("dvdc_slo_value", read(func(r *ruleState) float64 { return r.value }), "rule", name)
	reg.GaugeFunc("dvdc_slo_objective", func() float64 { return rs.rule.Objective }, "rule", name)
	reg.GaugeFunc("dvdc_slo_burn_fast", read(func(r *ruleState) float64 { return r.burnFast }), "rule", name)
	reg.GaugeFunc("dvdc_slo_burn_slow", read(func(r *ruleState) float64 { return r.burnSlow }), "rule", name)
	reg.GaugeFunc("dvdc_alert_firing", read(func(r *ruleState) float64 {
		if r.state == StateFiring {
			return 1
		}
		return 0
	}), "rule", name)
}

// now returns the evaluator's current time under the configured clock.
func (e *Evaluator) now() time.Time {
	if e.opts.FixedStep > 0 {
		return e.vclock
	}
	return time.Now()
}

// Tick scrapes every signal once and re-evaluates every rule. Under
// FixedStep the virtual clock advances by one step first, so tick N sits at
// epoch+N*step exactly.
func (e *Evaluator) Tick() {
	if e == nil {
		return
	}
	// Refresh func series and collect hooks before probing, so probes read
	// this tick's values rather than the previous scrape's.
	if e.opts.Registry != nil {
		e.opts.Registry.Collect()
	}

	e.mu.Lock()
	if e.opts.FixedStep > 0 {
		e.vclock = e.vclock.Add(e.opts.FixedStep)
	}
	now := e.now()
	e.ticks++
	tick := e.ticks
	states := make([]*signalState, 0, len(e.order))
	for _, name := range e.order {
		states = append(states, e.signals[name])
	}
	e.mu.Unlock()

	// Probe outside the lock: probes may take registry locks or block.
	points := make([]sample, len(states))
	for i, ss := range states {
		p := sample{t: now}
		if ss.sig.HistProbe != nil {
			p.hist, p.ok = ss.sig.HistProbe()
		} else {
			p.v, p.ok = ss.sig.Probe()
		}
		points[i] = p
	}

	e.mu.Lock()
	for i, ss := range states {
		ss.push(points[i])
	}
	var moved []alertNote
	for _, rs := range e.rules {
		if note, ok := e.evaluateLocked(rs, now, tick); ok {
			moved = append(moved, note)
		}
	}
	e.mu.Unlock()

	// Publish transitions outside e.mu: reg.Counter takes the registry lock,
	// which a concurrent scrape holds while reading the dvdc_slo_* funcs that
	// take e.mu — incrementing under e.mu is a lock-order inversion (see
	// TestScrapeTickDeadlockRepro).
	for _, n := range moved {
		if reg := e.opts.Registry; reg != nil {
			reg.Counter("dvdc_alert_transitions_total", "rule", n.rule, "to", n.to).Inc()
		}
		e.opts.Tracer.Mark("alert", "health", "rule", n.rule, "state", n.to,
			"tick", strconv.FormatInt(n.tick, 10),
			"value", fmt.Sprintf("%g", n.value),
			"objective", fmt.Sprintf("%g", n.objective),
			"burn_fast", fmt.Sprintf("%.2f", n.burnFast),
			"burn_slow", fmt.Sprintf("%.2f", n.burnSlow),
		)
	}
}

// alertNote carries one transition's side effects — the metrics counter bump
// and the alert span — out of the evaluator lock.
type alertNote struct {
	rule, to                             string
	tick                                 int64
	value, objective, burnFast, burnSlow float64
}

// evaluateLocked recomputes one rule's windows and advances its state
// machine. A state change is returned as an alertNote for the caller to
// publish after releasing e.mu.
func (e *Evaluator) evaluateLocked(rs *ruleState, now time.Time, tick int64) (alertNote, bool) {
	ss := e.signals[rs.rule.Signal]
	fastVal, fastN := windowMeasure(ss, rs.rule, rs.rule.FastWindow, now)
	slowVal, slowN := windowMeasure(ss, rs.rule, rs.rule.SlowWindow, now)
	rs.value = fastVal
	rs.samples = fastN
	rs.burnFast = fastVal / rs.rule.Objective
	rs.burnSlow = slowVal / rs.rule.Objective
	hasData := fastN >= rs.rule.MinSamples && slowN >= rs.rule.MinSamples

	switch rs.state {
	case StateFiring:
		// Resolve on fast-window recovery (or the signal going quiet): the
		// slow window keeps the fault in view long after it is over, and an
		// alert that cannot resolve is an alert nobody trusts.
		if fastN < rs.rule.MinSamples || rs.burnFast < 1 {
			return e.transitionLocked(rs, StateResolved, now, tick), true
		}
	default:
		if hasData && rs.burnFast >= 1 && rs.burnSlow >= 1 {
			return e.transitionLocked(rs, StateFiring, now, tick), true
		}
	}
	return alertNote{}, false
}

// transitionLocked advances the state machine under e.mu; the returned note
// defers the cross-lock side effects to the caller.
func (e *Evaluator) transitionLocked(rs *ruleState, to string, now time.Time, tick int64) alertNote {
	rs.state = to
	rs.since = now
	if to == StateFiring {
		rs.fired++
	}
	return alertNote{
		rule: rs.rule.Name, to: to, tick: tick,
		value: rs.value, objective: rs.rule.Objective,
		burnFast: rs.burnFast, burnSlow: rs.burnSlow,
	}
}

// windowMeasure computes a rule's measure over one window ending now.
// The baseline for counters and histograms is the newest sample at or before
// the window start, falling back to the oldest sample for partial windows so
// young processes can still alert.
func windowMeasure(ss *signalState, r Rule, w time.Duration, now time.Time) (float64, int) {
	start := now.Add(-w)
	samples := ss.samples
	if len(samples) == 0 {
		return 0, 0
	}
	switch ss.sig.Kind {
	case KindGauge:
		var sum float64
		var n int
		for _, p := range samples {
			if p.ok && p.t.After(start) {
				sum += p.v
				n++
			}
		}
		if n == 0 {
			return 0, 0
		}
		return sum / float64(n), n
	case KindCounter:
		base, latest, n := windowEnds(samples, start)
		if n == 0 || latest == nil || base == nil || latest.t.Sub(base.t) <= 0 {
			return 0, 0
		}
		delta := latest.v - base.v
		if delta < 0 { // counter reset (process restart)
			delta = latest.v
		}
		return delta / latest.t.Sub(base.t).Seconds(), n
	case KindHist:
		base, latest, _ := windowEnds(samples, start)
		if latest == nil || base == nil {
			return 0, 0
		}
		delta := latest.hist.Sub(base.hist)
		if delta.Total <= 0 {
			return 0, 0
		}
		return delta.Quantile(r.Quantile), int(delta.Total)
	}
	return 0, 0
}

// windowEnds picks the baseline and latest valid samples around a window
// start, returning how many valid samples fall inside the window.
func windowEnds(samples []sample, start time.Time) (base, latest *sample, n int) {
	for i := range samples {
		p := &samples[i]
		if !p.ok {
			continue
		}
		// Newest sample at or before the window start; seeded with the
		// oldest valid sample so a partial window still has a baseline.
		if base == nil || !p.t.After(start) {
			base = p
		}
		if p.t.After(start) {
			n++
		}
		latest = p
	}
	if latest == base {
		return base, latest, 0
	}
	return base, latest, n
}

// Start launches the background ticker. Refused (panics) in FixedStep mode,
// which exists precisely so tests control every tick.
func (e *Evaluator) Start() {
	if e == nil {
		return
	}
	if e.opts.FixedStep > 0 {
		panic("health: Start is incompatible with FixedStep (manual Tick only)")
	}
	go func() {
		defer close(e.done)
		t := time.NewTicker(e.opts.Interval)
		defer t.Stop()
		for {
			select {
			case <-e.stop:
				return
			case <-t.C:
				e.Tick()
			}
		}
	}()
}

// Stop halts the background ticker (idempotent; no-op if never started).
func (e *Evaluator) Stop() {
	if e == nil {
		return
	}
	e.stopOnce.Do(func() { close(e.stop) })
	select {
	case <-e.done:
	case <-time.After(time.Second):
	}
}

// Firing returns the names of currently firing rules, sorted.
func (e *Evaluator) Firing() []string {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	var out []string
	for _, rs := range e.rules {
		if rs.state == StateFiring {
			out = append(out, rs.rule.Name)
		}
	}
	sort.Strings(out)
	return out
}

// Report snapshots every rule's current evaluation, sorted by rule name.
func (e *Evaluator) Report() Report {
	if e == nil {
		return Report{Healthy: true}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	rep := Report{Time: e.now(), Healthy: true, Ticks: e.ticks}
	for _, rs := range e.rules {
		rep.Rules = append(rep.Rules, RuleStatus{
			Name:      rs.rule.Name,
			Signal:    rs.rule.Signal,
			State:     rs.state,
			Since:     rs.since,
			Value:     rs.value,
			Objective: rs.rule.Objective,
			Unit:      rs.rule.Unit,
			BurnFast:  rs.burnFast,
			BurnSlow:  rs.burnSlow,
			Samples:   rs.samples,
			Fired:     rs.fired,
		})
	}
	sort.Slice(rep.Rules, func(i, j int) bool { return rep.Rules[i].Name < rep.Rules[j].Name })
	for _, r := range rep.Rules {
		if r.State == StateFiring {
			rep.Healthy = false
		}
	}
	return rep
}

// Mount serves the report as JSON on GET /api/v1/health, beside the service's
// /api/v1 endpoints on the same -obs-addr mux.
func (e *Evaluator) Mount() obs.Mount {
	return func(mux *http.ServeMux) {
		mux.HandleFunc("/api/v1/health", func(w http.ResponseWriter, req *http.Request) {
			if req.Method != http.MethodGet {
				http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
				return
			}
			w.Header().Set("Content-Type", "application/json")
			json.NewEncoder(w).Encode(e.Report()) //nolint:errcheck
		})
	}
}
