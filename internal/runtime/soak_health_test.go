package runtime

import (
	"testing"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/obs/health"
)

// TestSoakSlowNodeFiresRoundTimeSLO pins the health engine end to end on a
// live cluster: a pinned-seed soak makes one node habitually slow for a
// window of rounds, and the round-time SLO must fire while the node drags
// rounds past the objective and resolve once it is healed. The evaluator
// runs in FixedStep mode, ticked once per round by the soak loop, so the
// alert timeline is a pure function of the measured round walls — which the
// slow-node delay separates from the objective by an order of magnitude on
// both sides.
func TestSoakSlowNodeFiresRoundTimeSLO(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewFlightRecorder()
	ev := health.New(health.Options{Registry: reg, Recorder: rec, FixedStep: time.Second})
	ev.AddSignal(health.HistSignal(reg, "round_time", "dvdc_round_seconds"))
	// Median over short windows, not p99: the median of the window is immune
	// to a single outlier round on a loaded CI machine, while four slow
	// rounds in a row move it an order of magnitude past the objective.
	ev.AddRule(health.Rule{
		Name: "round_time_slo", Signal: "round_time", Unit: "s",
		Objective: 0.06, Quantile: 0.5,
		FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second,
	})

	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        10,
		StepsPerRound: 10,
		Seed:          424242,
		Registry:      reg,
		Recorder:      rec,
		Health:        ev,
		// Rounds 2..5 (0-based) run against a node whose every frame is
		// stretched by 200ms: a clean round on this layout is ~20ms of wall,
		// a slow one at least one delayed frame per phase.
		SlowDelay: 200 * time.Millisecond,
		SlowNode:  1,
		SlowFrom:  2,
		SlowUntil: 6,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("soak failed: %v\nfault log:\n%s", err, faultLines(res))
	}

	// The standing fault is in the deterministic fault log exactly once.
	slowFaults := 0
	for _, f := range res.FaultLog {
		if f.Kind.String() == "slow" {
			slowFaults++
			if f.Node != cfg.SlowNode {
				t.Errorf("slow fault logged against node %d, want %d", f.Node, cfg.SlowNode)
			}
		}
	}
	if slowFaults != 1 {
		t.Errorf("fault log carries %d slow faults, want exactly 1 (logged at arm time, not per frame)", slowFaults)
	}

	// The alert timeline: fired while the slow window was live, resolved
	// after the heal, nothing firing at the end.
	var fireTick, resolveTick int64 = -1, -1
	for _, tr := range ev.History() {
		if tr.Rule != "round_time_slo" {
			continue
		}
		switch tr.To {
		case health.StateFiring:
			if fireTick < 0 {
				fireTick = tr.Tick
			}
		case health.StateResolved:
			resolveTick = tr.Tick
		}
	}
	if fireTick < 0 {
		t.Fatalf("round_time_slo never fired across the slow window; history: %+v, report: %+v",
			ev.History(), ev.Report())
	}
	// Tick N follows 0-based round N-1. The first slow round is round 2
	// (tick 3) and the heal lands before round 6 (tick 7): the alert cannot
	// fire before the fault and must fire before the first clean evaluation.
	if fireTick < 3 || fireTick > 7 {
		t.Errorf("round_time_slo fired at tick %d, want within the slow window [3, 7]", fireTick)
	}
	if resolveTick < 0 {
		t.Fatalf("round_time_slo never resolved after the heal; report: %+v", ev.Report())
	}
	if resolveTick <= fireTick {
		t.Errorf("resolved at tick %d, not after firing at tick %d", resolveTick, fireTick)
	}
	if firing := ev.Firing(); len(firing) != 0 {
		t.Errorf("rules still firing after the heal: %v", firing)
	}

	// The exported alert metrics tell the same story: the firing gauge is
	// back to 0 and both transitions were counted.
	reg.Collect()
	if v, ok := reg.Value("dvdc_alert_firing", "rule", "round_time_slo"); !ok || v != 0 {
		t.Errorf("dvdc_alert_firing{rule=round_time_slo} = %v (ok=%v), want 0", v, ok)
	}
	if v, _ := reg.Value("dvdc_alert_transitions_total", "rule", "round_time_slo", "to", "firing"); v < 1 {
		t.Errorf("dvdc_alert_transitions_total{to=firing} = %v, want >= 1", v)
	}
	if v, _ := reg.Value("dvdc_alert_transitions_total", "rule", "round_time_slo", "to", "resolved"); v < 1 {
		t.Errorf("dvdc_alert_transitions_total{to=resolved} = %v, want >= 1", v)
	}

	// And the flight recorder holds the transitions, so a postmortem bundle
	// dumped near the incident explains itself.
	alerts := 0
	for _, en := range rec.Entries() {
		if en.Kind == "alert" && en.Name == "round_time_slo" {
			alerts++
		}
	}
	if alerts < 2 {
		t.Errorf("flight recorder carries %d alert entries, want >= 2 (firing + resolved)", alerts)
	}
}
