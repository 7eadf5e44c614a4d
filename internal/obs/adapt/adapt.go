// Package adapt closes the telemetry loop: it consumes what the
// observability plane already measures — per-lane self-times and critical
// paths (obs/collect), habitual-outlier flags (collect.OutlierTracker), and
// live failure-rate estimates (analytic.RateEstimator) — and turns them into
// typed, observable recommendations against the running cluster:
//
//   - keeper_rebalance: drain parity keepers off a habitually slow peer, so
//     the slow node stops being the fan-in point of every member's delta
//     stream (the existing recovery/rebalance machinery does the move);
//   - interval_retune: re-derive the optimal checkpoint interval from the
//     Section V availability model fed with the observed failure rate.
//
// Every decision — applied, skipped, or failed — is first-class telemetry:
// the dvdc_adapt_* metric family counts it, a decision span nests under the
// round trace, and a flight-recorder note lands in postmortem bundles. The
// advisor never acts while an SLO is firing (health.Evaluator.Firing): a
// control loop that reshapes the cluster during an incident turns alerts
// into moving targets, so recommendations are still computed and recorded
// but their application is skipped with reason "slo-firing".
//
// The advisor deliberately does not import the runtime: actuators arrive as
// Hooks closures, so the package stays a pure telemetry-in/decisions-out
// engine that tests drive with fakes.
package adapt

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"dvdc/internal/analytic"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
)

// Rule names — the advisor's closed vocabulary, shared with the dvdcctl
// renderer (which reconstructs decision tallies from scraped metrics, so the
// set must be enumerable).
const (
	RuleKeeperRebalance = "keeper_rebalance"
	RuleIntervalRetune  = "interval_retune"
)

// Rules lists every rule name, in render order.
func Rules() []string {
	return []string{RuleKeeperRebalance, RuleIntervalRetune}
}

// Decision actions.
const (
	ActionApplied = "applied"
	ActionSkipped = "skipped"
	ActionFailed  = "failed"
)

// Skip reasons (the label vocabulary of dvdc_adapt_skips_total).
const (
	SkipSLOFiring   = "slo-firing"  // guardrail: an SLO rule is firing
	SkipCooldown    = "cooldown"    // the rule applied too recently
	SkipNoHook      = "no-hook"     // no actuator wired for this rule
	SkipUnplaceable = "unplaceable" // earlier evacuation of this peer failed structurally
)

// SkipReasons lists every skip reason, in render order.
func SkipReasons() []string {
	return []string{SkipSLOFiring, SkipCooldown, SkipNoHook, SkipUnplaceable}
}

// Hooks are the advisor's actuators. A nil hook records the recommendation
// and skips application with reason "no-hook". Closures keep the package
// decoupled from internal/runtime; the soak harness wires EvacuateKeepers to
// Coordinator.EvacuateKeepers. interval_retune needs no hook: the advisor
// owns the interval, and the soak reads it back through Interval.
type Hooks struct {
	// EvacuateKeepers drains every parity block off the named peer's node and
	// returns how many blocks moved (0 = the node kept no parity). Lane names
	// ("node3") are the peer vocabulary, matching collect's attribution.
	EvacuateKeepers func(peer string) (moves int, err error)
}

// Observation is one round's telemetry, handed to Step after the round's
// invariants verified — the cluster is quiesced and every span of the round
// is recorded.
type Observation struct {
	Round int             // 1-based round index
	Ctx   obs.SpanContext // round root span context; decision spans nest here

	Attr     *collect.Attribution // critical-path attribution (may be nil)
	Outliers []string             // peers currently flagged as habitual outliers
	Evidence map[string]string    // extra rendered evidence (p99s, medians) merged into decision inputs

	Failures int     // failures observed this round (kills + mid-commit deaths)
	Elapsed  float64 // (virtual) seconds of exposure the round covered

	Firing []string // SLO rules currently firing (health.Evaluator.Firing)
}

// Decision is one advisor verdict: the rule that fired, the evidence it saw,
// and what happened to the recommendation.
type Decision struct {
	Round  int
	Rule   string
	Action string            // applied | skipped | failed
	Reason string            // skip/failure reason ("" when applied)
	Detail string            // human summary of the action
	Inputs map[string]string // the evidence the rule fired on
}

// Config parameterizes an Advisor. Tracer and Registry may each be nil (the
// corresponding telemetry is simply not emitted).
type Config struct {
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Hooks    Hooks

	// IntervalSeconds is the base checkpoint interval on the virtual clock:
	// the interval interval_retune starts from, and the unit its thresholds
	// are measured in (half-life 6, engage after 2, search cap 8 intervals).
	IntervalSeconds float64
}

// The advisor's fixed tuning. The first three are multiples of the base
// interval; the rest are absolute.
const (
	rateHalfLifeIntervals = 6     // failure-rate estimator half-life
	minRateIntervals      = 2     // observed exposure before interval_retune engages
	intervalHiIntervals   = 8     // optimal-interval search cap
	intervalLo            = 1.0   // optimal-interval search floor, seconds
	overheadSeconds       = 1.0   // per-checkpoint overhead Tov fed to the model
	cooldownRounds        = 2     // rounds a rule rests after applying
	missionSeconds        = 86400 // availability-model mission time T
	repairSeconds         = 30    // availability-model repair time
	intervalTol           = 0.25  // relative interval change worth acting on
)

// Advisor is the adaptive control loop's brain. Feed it one Observation per
// round (Step); it returns the round's decisions after recording each as
// metrics, a decision span, and a flight-recorder note. Safe for concurrent
// use, though the intended cadence is one Step per round.
type Advisor struct {
	mu        sync.Mutex
	cfg       Config
	est       *analytic.RateEstimator
	lastApply map[string]int  // rule -> round of last application
	evacuated map[string]bool // peers whose keepers were already drained
	failed    map[string]bool // peers whose evacuation failed structurally
	interval  float64
	decisions []Decision
}

// New builds an Advisor and mounts its live gauges on the registry:
// dvdc_adapt_failure_rate (the decayed failures-per-virtual-second estimate)
// and dvdc_checkpoint_interval_seconds (the interval the advisor currently
// believes in — also the satellite tuning gauge for static runs, where it
// simply never moves).
func New(cfg Config) *Advisor {
	a := &Advisor{
		cfg:       cfg,
		est:       analytic.NewRateEstimator(rateHalfLifeIntervals * cfg.IntervalSeconds),
		lastApply: map[string]int{},
		evacuated: map[string]bool{},
		failed:    map[string]bool{},
		interval:  cfg.IntervalSeconds,
	}
	reg := cfg.Registry
	reg.GaugeFunc("dvdc_adapt_failure_rate", func() float64 { return a.est.Rate() })
	reg.GaugeFunc("dvdc_checkpoint_interval_seconds", func() float64 {
		a.mu.Lock()
		defer a.mu.Unlock()
		return a.interval
	})
	return a
}

// FailureRate exposes the live failure-rate estimate (failures per virtual
// second).
func (a *Advisor) FailureRate() float64 { return a.est.Rate() }

// Interval returns the checkpoint interval the advisor currently believes in.
func (a *Advisor) Interval() float64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.interval
}

// Decisions returns every decision taken so far, oldest first.
func (a *Advisor) Decisions() []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	return append([]Decision(nil), a.decisions...)
}

// Step consumes one round's telemetry and runs every rule. Each emitted
// Decision has already been counted (dvdc_adapt_*), recorded (flight note),
// and traced (a decision span under o.Ctx) when Step returns.
func (a *Advisor) Step(o Observation) []Decision {
	a.mu.Lock()
	defer a.mu.Unlock()
	if o.Elapsed > 0 {
		a.est.Observe(o.Failures, o.Elapsed) //nolint:errcheck // guarded: elapsed > 0, failures >= 0 by construction
	}
	span := a.cfg.Tracer.Child(o.Ctx, "adapt", "adapt")
	sctx := obs.SpanContext{}
	if span != nil {
		sctx = span.Context()
	}
	var out []Decision
	out = append(out, a.keeperRule(o)...)
	if d := a.intervalRule(o); d != nil {
		out = append(out, *d)
	}
	for i := range out {
		a.record(sctx, out[i])
	}
	a.decisions = append(a.decisions, out...)
	if span != nil {
		span.SetAttr("decisions", strconv.Itoa(len(out)))
		span.Finish()
	}
	return out
}

// gate returns the reason an application must be skipped ("" = clear to act).
// Precedence: a missing actuator beats the guardrail beats the cooldown, so
// the skip label always names the first unfixable obstacle.
func (a *Advisor) gate(rule string, o Observation, hookNil bool) string {
	if hookNil {
		return SkipNoHook
	}
	if len(o.Firing) > 0 {
		return SkipSLOFiring
	}
	if last, ok := a.lastApply[rule]; ok && o.Round-last <= cooldownRounds {
		return SkipCooldown
	}
	return ""
}

// keeperRule recommends draining parity keepers off every habitually slow
// peer the outlier tracker flags. One decision per un-evacuated outlier.
func (a *Advisor) keeperRule(o Observation) []Decision {
	var out []Decision
	for _, peer := range o.Outliers {
		if a.evacuated[peer] {
			continue
		}
		d := Decision{
			Round:  o.Round,
			Rule:   RuleKeeperRebalance,
			Detail: "evacuate parity keepers off " + peer,
			Inputs: map[string]string{"peer": peer},
		}
		for k, v := range o.Evidence {
			d.Inputs[k] = v
		}
		if o.Attr != nil && o.Attr.Straggler != "" {
			d.Inputs["straggler"] = o.Attr.Straggler
		}
		switch {
		case a.failed[peer]:
			d.Action, d.Reason = ActionSkipped, SkipUnplaceable
		default:
			if reason := a.gate(RuleKeeperRebalance, o, a.cfg.Hooks.EvacuateKeepers == nil); reason != "" {
				d.Action, d.Reason = ActionSkipped, reason
				break
			}
			moves, err := a.cfg.Hooks.EvacuateKeepers(peer)
			if err != nil {
				d.Action, d.Reason = ActionFailed, err.Error()
				a.failed[peer] = true
				break
			}
			d.Action = ActionApplied
			a.evacuated[peer] = true
			if moves == 0 {
				d.Detail = peer + " keeps no parity; nothing to drain"
			} else {
				d.Detail = fmt.Sprintf("drained %d parity block(s) off %s", moves, peer)
			}
		}
		out = append(out, d)
	}
	return out
}

// intervalRule re-derives the optimal checkpoint interval from the Section V
// availability model fed with the live failure-rate estimate, and recommends
// a change when it moves beyond the tolerance band. No failures observed yet
// means no evidence — the rule stays quiet rather than "optimizing" on a
// zero rate.
func (a *Advisor) intervalRule(o Observation) *Decision {
	rate := a.est.Rate()
	if rate <= 0 || a.est.ObservedSeconds() < minRateIntervals*a.cfg.IntervalSeconds || a.interval <= 0 {
		return nil
	}
	opt, err := analytic.OptimalInterval(
		analytic.Model{Lambda: rate, T: missionSeconds, Repair: repairSeconds},
		analytic.ConstantOverhead{Tov: overheadSeconds, Label: "observed"},
		intervalLo, intervalHiIntervals*a.cfg.IntervalSeconds)
	if err != nil {
		return nil
	}
	rel := (opt.Interval - a.interval) / a.interval
	if rel < 0 {
		rel = -rel
	}
	if rel <= intervalTol {
		return nil
	}
	d := &Decision{
		Round: o.Round,
		Rule:  RuleIntervalRetune,
		Detail: fmt.Sprintf("retune checkpoint interval %.1fs -> %.1fs",
			a.interval, opt.Interval),
		Inputs: map[string]string{
			"failure_rate": fmt.Sprintf("%.4f/s", rate),
			"mtbf":         fmt.Sprintf("%.0fs", a.est.MTBF()),
			"optimal":      fmt.Sprintf("%.1fs", opt.Interval),
		},
	}
	if reason := a.gate(RuleIntervalRetune, o, false); reason != "" {
		d.Action, d.Reason = ActionSkipped, reason
		return d
	}
	d.Action = ActionApplied
	a.interval = opt.Interval
	return d
}

// record lands one decision in every telemetry surface: the dvdc_adapt_*
// counters and a decision span under the round trace. Caller holds a.mu.
func (a *Advisor) record(sctx obs.SpanContext, d Decision) {
	reg := a.cfg.Registry
	reg.Counter("dvdc_adapt_recommendations_total", "rule", d.Rule).Inc()
	switch d.Action {
	case ActionApplied:
		reg.Counter("dvdc_adapt_applies_total", "rule", d.Rule).Inc()
		a.lastApply[d.Rule] = d.Round
	case ActionSkipped:
		reg.Counter("dvdc_adapt_skips_total", "rule", d.Rule, "reason", d.Reason).Inc()
	case ActionFailed:
		reg.Counter("dvdc_adapt_failures_total", "rule", d.Rule).Inc()
	}
	if sp := a.cfg.Tracer.Child(sctx, "adapt "+d.Rule, "adapt"); sp != nil {
		sp.SetAttr("action", d.Action)
		if d.Reason != "" {
			sp.SetAttr("reason", d.Reason)
		}
		sp.SetAttr("detail", d.Detail)
		for _, k := range sortedKeys(d.Inputs) {
			sp.SetAttr(k, d.Inputs[k])
		}
		sp.Finish()
	}
}

func sortedKeys(m map[string]string) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
