package adapt

import (
	"fmt"
	"strings"
	"testing"

	"dvdc/internal/obs"
)

// obsWith builds a minimal observation: 100 virtual seconds with the given
// failures, outliers as given.
func obsWith(round, failures int, outliers ...string) Observation {
	return Observation{Round: round, Outliers: outliers, Failures: failures, Elapsed: 100}
}

// failureRegime sets interval_retune up so that five failures in 100 virtual
// seconds (one obsWith round, two base intervals: enough exposure to engage)
// pull the optimal interval far below the base 50 s.
func failureRegime(c Config) Config {
	c.IntervalSeconds = 50
	return c
}

func TestKeeperRuleEvacuatesOutlierOnce(t *testing.T) {
	var calls []string
	a := New(Config{
		IntervalSeconds: 10,
		Hooks: Hooks{EvacuateKeepers: func(peer string) (int, error) {
			calls = append(calls, peer)
			return 2, nil
		}},
	})
	ds := a.Step(obsWith(1, 0, "node3"))
	if len(ds) != 1 || ds[0].Rule != RuleKeeperRebalance || ds[0].Action != ActionApplied {
		t.Fatalf("decisions = %+v, want one applied keeper_rebalance", ds)
	}
	if !strings.Contains(ds[0].Detail, "2 parity block(s)") {
		t.Errorf("detail %q does not name the drained blocks", ds[0].Detail)
	}
	// The same outlier never triggers a second evacuation.
	if ds := a.Step(obsWith(2, 0, "node3")); len(ds) != 0 {
		t.Fatalf("re-flagged outlier produced %+v, want nothing", ds)
	}
	// A second outlier inside the rule's cooldown waits it out.
	if ds := a.Step(obsWith(3, 0, "node3", "node4")); len(ds) != 1 || ds[0].Reason != SkipCooldown {
		t.Fatalf("outlier inside the cooldown produced %+v, want one cooldown skip", ds)
	}
	if ds := a.Step(obsWith(4, 0, "node3", "node4")); len(ds) != 1 || ds[0].Action != ActionApplied {
		t.Fatalf("outlier after the cooldown produced %+v, want one applied", ds)
	}
	if len(calls) != 2 || calls[0] != "node3" || calls[1] != "node4" {
		t.Fatalf("hook calls = %v, want exactly [node3 node4]", calls)
	}
}

func TestKeeperRuleStructuralFailureNotRetried(t *testing.T) {
	calls := 0
	a := New(Config{
		IntervalSeconds: 10,
		Hooks: Hooks{EvacuateKeepers: func(string) (int, error) {
			calls++
			return 0, fmt.Errorf("no orthogonal target")
		}},
	})
	ds := a.Step(obsWith(1, 0, "node2"))
	if len(ds) != 1 || ds[0].Action != ActionFailed {
		t.Fatalf("decisions = %+v, want one failed", ds)
	}
	ds = a.Step(obsWith(2, 0, "node2"))
	if len(ds) != 1 || ds[0].Action != ActionSkipped || ds[0].Reason != SkipUnplaceable {
		t.Fatalf("decisions = %+v, want skip reason %q", ds, SkipUnplaceable)
	}
	if calls != 1 {
		t.Fatalf("hook called %d times, want 1 (structural failures are terminal)", calls)
	}
}

func TestGuardrailPausesApplicationsWhileSLOFiring(t *testing.T) {
	hookCalled := false
	a := New(failureRegime(Config{
		Hooks: Hooks{EvacuateKeepers: func(string) (int, error) { hookCalled = true; return 1, nil }},
	}))
	o := obsWith(1, 5, "node1")
	o.Firing = []string{"round_time_slo"}
	ds := a.Step(o)
	if len(ds) != 2 {
		t.Fatalf("decisions = %+v, want keeper + interval recommendations", ds)
	}
	for _, d := range ds {
		if d.Action != ActionSkipped || d.Reason != SkipSLOFiring {
			t.Fatalf("decision %+v, want skipped/%s", d, SkipSLOFiring)
		}
	}
	if hookCalled || a.Interval() != 50 {
		t.Fatalf("an actuator ran while the SLO was firing (hookCalled=%v, interval %v)", hookCalled, a.Interval())
	}
	// Once the alert resolves the same evidence is applied.
	ds = a.Step(obsWith(2, 5, "node1"))
	if len(ds) != 2 || !hookCalled || a.Interval() >= 50 {
		t.Fatalf("post-resolve decisions = %+v (hookCalled=%v, interval %v)", ds, hookCalled, a.Interval())
	}
}

func TestIntervalRuleFollowsFailureRate(t *testing.T) {
	a := New(failureRegime(Config{}))
	// No failures: the rule stays quiet.
	if ds := a.Step(Observation{Round: 1, Elapsed: 100}); len(ds) != 0 {
		t.Fatalf("zero-rate round produced %+v", ds)
	}
	// A failure regime: the model must pull the interval down hard.
	o := Observation{Round: 2, Failures: 5, Elapsed: 100}
	ds := a.Step(o)
	if len(ds) != 1 || ds[0].Rule != RuleIntervalRetune || ds[0].Action != ActionApplied {
		t.Fatalf("decisions = %+v, want applied interval_retune", ds)
	}
	if a.Interval() >= 50 || ds[0].Inputs["optimal"] != fmt.Sprintf("%.1fs", a.Interval()) {
		t.Fatalf("advisor interval %v after %+v, want the applied optimum, well below 50", a.Interval(), ds[0])
	}
}

func TestDecisionTelemetryAndRendering(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(1 << 10)
	a := New(failureRegime(Config{Tracer: tr, Registry: reg}))
	root := tr.Start(obs.SpanContext{}, "round", "coord")
	o := obsWith(1, 5, "node2")
	o.Ctx = root.Context()
	ds := a.Step(o)
	root.Finish()
	if len(ds) != 2 {
		t.Fatalf("decisions = %+v", ds)
	}

	// Metrics: recommendations for both rules, one apply (the interval, which
	// needs no hook), one no-hook skip (the keeper drain, with no actuator).
	if v, _ := reg.Value("dvdc_adapt_recommendations_total", "rule", RuleKeeperRebalance); v != 1 {
		t.Errorf("keeper recommendations = %v, want 1", v)
	}
	if v, _ := reg.Value("dvdc_adapt_applies_total", "rule", RuleIntervalRetune); v != 1 {
		t.Errorf("interval applies = %v, want 1", v)
	}
	if v, _ := reg.Value("dvdc_adapt_skips_total", "rule", RuleKeeperRebalance, "reason", SkipNoHook); v != 1 {
		t.Errorf("keeper no-hook skips = %v, want 1", v)
	}

	// Spans: decision spans nest under the round trace.
	spans := tr.TraceSpans(root.TraceID())
	var adaptSpans int
	for _, s := range spans {
		if strings.HasPrefix(s.Name, "adapt") {
			adaptSpans++
		}
	}
	if adaptSpans != 3 { // "adapt" + one per decision
		t.Errorf("adapt spans in round trace = %d, want 3", adaptSpans)
	}

	// Decision log rendering: inputs -> rule -> action.
	out := RenderDecisions(ds)
	for _, want := range []string{"keeper_rebalance", "applied", "peer=node2", "interval_retune", "no-hook"} {
		if !strings.Contains(out, want) {
			t.Errorf("RenderDecisions output missing %q:\n%s", want, out)
		}
	}

	// Scraped view rendering round-trips through the text exposition.
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	v := BuildView(sb.String())
	if !v.Active {
		t.Fatal("BuildView saw no adapt series")
	}
	if v.TotalApplied() != 1 {
		t.Errorf("view applied = %v, want 1", v.TotalApplied())
	}
	if v.Interval != a.Interval() || v.Interval >= 50 {
		t.Errorf("view interval = %v, want the applied %v", v.Interval, a.Interval())
	}
	panel := RenderView(v)
	for _, want := range []string{"keeper_rebalance", fmt.Sprintf("interval=%.1fs", a.Interval()), "no-hook=1"} {
		if !strings.Contains(panel, want) {
			t.Errorf("RenderView output missing %q:\n%s", want, panel)
		}
	}
}
