package health

import (
	"strings"
	"testing"
	"time"

	"dvdc/internal/obs"
)

// tickEval builds a FixedStep evaluator over a fresh registry: every Tick
// advances a virtual clock by exactly one second, so state timelines are
// golden-testable.
func tickEval(t *testing.T) (*Evaluator, *obs.Registry) {
	t.Helper()
	reg := obs.NewRegistry()
	e := New(Options{Registry: reg, Interval: time.Second, FixedStep: time.Second})
	return e, reg
}

// TestFireAndResolveTimeline scripts a slow-round fault window against a
// windowed-p99 rule and pins the exact tick of every alert transition.
func TestFireAndResolveTimeline(t *testing.T) {
	e, reg := tickEval(t)
	rounds := reg.Histogram("dvdc_round_seconds", obs.LatencyBuckets())
	e.AddSignal(HistSignal(reg, "round_time", "dvdc_round_seconds"))
	e.AddRule(Rule{
		Name: "round_time_p99", Signal: "round_time", Unit: "s",
		Objective:  0.1,
		FastWindow: 3 * time.Second, SlowWindow: 8 * time.Second,
	})

	state := func() string { return e.Report().Rules[0].State }
	// Ticks 1..5: healthy 10ms rounds.
	for i := 0; i < 5; i++ {
		rounds.Observe(0.010)
		e.Tick()
		if got := state(); got != StateOK {
			t.Fatalf("tick %d: state = %s, want ok", i+1, got)
		}
	}
	// Ticks 6..12: a slow node pushes rounds to 500ms. Both windows see the
	// violation immediately (p99 of a small window is its max), so the rule
	// fires on the first bad tick.
	for i := 0; i < 7; i++ {
		rounds.Observe(0.500)
		e.Tick()
		if got := state(); got != StateFiring {
			t.Fatalf("fault tick %d: state = %s, want firing", i+6, got)
		}
	}
	if v, ok := reg.Value("dvdc_alert_firing", "rule", "round_time_p99"); !ok || v != 1 {
		t.Fatalf("dvdc_alert_firing = %v,%v, want 1,true", v, ok)
	}
	if len(e.Firing()) != 1 {
		t.Fatalf("Firing() = %v, want [round_time_p99]", e.Firing())
	}
	// Ticks 13..20: fault healed. The fast window still spans bad samples for
	// two ticks; the first all-clean fast window is tick 15.
	for i := 13; i <= 20; i++ {
		rounds.Observe(0.010)
		e.Tick()
		want := StateFiring
		if i >= 15 {
			want = StateResolved
		}
		if got := state(); got != want {
			t.Fatalf("heal tick %d: state = %s, want %s", i, got, want)
		}
	}

	hist := e.History()
	if len(hist) != 2 {
		t.Fatalf("history = %+v, want exactly fire+resolve", hist)
	}
	if hist[0].To != StateFiring || hist[0].Tick != 6 {
		t.Errorf("first transition = %+v, want firing at tick 6", hist[0])
	}
	if hist[1].To != StateResolved || hist[1].Tick != 15 {
		t.Errorf("second transition = %+v, want resolved at tick 15", hist[1])
	}
	if v, _ := reg.Value("dvdc_alert_firing", "rule", "round_time_p99"); v != 0 {
		t.Errorf("dvdc_alert_firing after resolve = %v, want 0", v)
	}
	if got := reg.Counter("dvdc_alert_transitions_total", "rule", "round_time_p99", "to", "firing").Value(); got != 1 {
		t.Errorf("transitions{firing} = %d, want 1", got)
	}
	rep := e.Report()
	if rep.Healthy != true || rep.Rules[0].Fired != 1 {
		t.Errorf("report = healthy %v fired %d, want true/1", rep.Healthy, rep.Rules[0].Fired)
	}
}

// TestMedianRuleSuppressesBlip shows the windowed-median form absorbing a
// single outlier observation that a p99 rule would fire on.
func TestMedianRuleSuppressesBlip(t *testing.T) {
	e, reg := tickEval(t)
	rounds := reg.Histogram("dvdc_round_seconds", obs.LatencyBuckets())
	e.AddSignal(HistSignal(reg, "round_time", "dvdc_round_seconds"))
	e.AddRule(Rule{
		Name: "round_time_p50", Signal: "round_time", Unit: "s",
		Objective: 0.1, Quantile: 0.5,
		FastWindow: 4 * time.Second, SlowWindow: 10 * time.Second,
	})
	for i := 1; i <= 12; i++ {
		if i == 6 {
			rounds.Observe(0.500) // one CI hiccup round
		} else {
			rounds.Observe(0.010)
		}
		e.Tick()
		if got := e.Report().Rules[0].State; got != StateOK {
			t.Fatalf("tick %d: state = %s, want ok throughout", i, got)
		}
	}
}

// TestGaugeAndCounterWindows pins the mean/rate window math for the two
// scalar signal kinds.
func TestGaugeAndCounterWindows(t *testing.T) {
	e, _ := tickEval(t)
	var gauge float64
	var counter float64
	e.AddSignal(Signal{Name: "g", Kind: KindGauge, Probe: func() (float64, bool) { return gauge, true }})
	e.AddSignal(Signal{Name: "c", Kind: KindCounter, Probe: func() (float64, bool) { return counter, true }})
	e.AddRule(Rule{Name: "g_high", Signal: "g", Objective: 1, FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second})
	e.AddRule(Rule{Name: "c_rate", Signal: "c", Objective: 1, FastWindow: 2 * time.Second, SlowWindow: 4 * time.Second, MinSamples: 2})

	byName := func(rep Report, name string) RuleStatus {
		for _, r := range rep.Rules {
			if r.Name == name {
				return r
			}
		}
		t.Fatalf("rule %s missing from report", name)
		return RuleStatus{}
	}

	// Counter climbing 3/s, gauge at 0: only the rate rule should fire once
	// two samples exist.
	for i := 0; i < 4; i++ {
		counter += 3
		e.Tick()
	}
	rep := e.Report()
	if g := byName(rep, "g_high"); g.State != StateOK || g.Value != 0 {
		t.Errorf("g_high = %+v, want ok at 0", g)
	}
	if c := byName(rep, "c_rate"); c.State != StateFiring || c.Value != 3 {
		t.Errorf("c_rate = %+v, want firing at 3/s", c)
	}

	// Counter flat, gauge pegged at 5: rate resolves, gauge mean fires.
	for i := 0; i < 6; i++ {
		gauge = 5
		e.Tick()
	}
	rep = e.Report()
	if c := byName(rep, "c_rate"); c.State != StateResolved || c.Value != 0 {
		t.Errorf("c_rate = %+v, want resolved at 0", c)
	}
	if g := byName(rep, "g_high"); g.State != StateFiring || g.Value != 5 {
		t.Errorf("g_high = %+v, want firing at mean 5", g)
	}
}

// TestCounterResetTolerated pins the restart path: a counter going backwards
// is read as "reset", not a negative rate.
func TestCounterResetTolerated(t *testing.T) {
	e, _ := tickEval(t)
	var counter float64
	e.AddSignal(Signal{Name: "c", Kind: KindCounter, Probe: func() (float64, bool) { return counter, true }})
	e.AddRule(Rule{Name: "c_rate", Signal: "c", Objective: 100, FastWindow: 3 * time.Second, SlowWindow: 6 * time.Second})
	counter = 50
	e.Tick()
	counter = 2 // process restarted; counter restarted from zero
	e.Tick()
	v := e.Report().Rules[0].Value
	if v < 0 {
		t.Fatalf("rate after reset = %v, want >= 0", v)
	}
}

// TestHealthzProviderInstalled checks New wires /healthz to the evaluator.
func TestHealthzProviderInstalled(t *testing.T) {
	e, reg := tickEval(t)
	fn := reg.Healthz()
	if fn == nil {
		t.Fatal("no healthz provider installed")
	}
	ok, body := fn(true)
	if !ok {
		t.Fatalf("empty evaluator reports unhealthy")
	}
	if _, isReport := body.(Report); !isReport {
		t.Fatalf("verbose body = %T, want health.Report", body)
	}
	_ = e
}

// TestRenderReportsGolden pins the renderer's exact output under the virtual
// clock, including the firing star and the verdict line.
func TestRenderReportsGolden(t *testing.T) {
	e, reg := tickEval(t)
	rounds := reg.Histogram("dvdc_round_seconds", obs.LatencyBuckets())
	e.AddSignal(HistSignal(reg, "round_time", "dvdc_round_seconds"))
	e.AddRule(Rule{
		Name: "round_time_p99", Signal: "round_time", Unit: "s",
		Objective: 0.1, FastWindow: 3 * time.Second, SlowWindow: 8 * time.Second,
	})
	for i := 0; i < 4; i++ {
		rounds.Observe(0.5)
		e.Tick()
	}
	got := RenderReports([]SourceReport{{Source: "127.0.0.1:7500", Report: e.Report()}}, 120)
	// Deterministic under the virtual clock: p99 of the 3-observation fast
	// window interpolates to exactly 497.5ms inside the 0.5s bucket.
	for _, want := range []string{
		"SOURCE", "RULE", "STATE", "BURN f/s",
		"round_time_p99", "*firing", "497.5ms", "100ms", " 5.0/5.0", "UNHEALTHY: 1 rule(s) firing",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("render missing %q:\n%s", want, got)
		}
	}
	again := RenderReports([]SourceReport{{Source: "127.0.0.1:7500", Report: e.Report()}}, 120)
	if got != again {
		t.Errorf("render not deterministic:\n%s\n---\n%s", got, again)
	}
}

// TestAlertStampedIntoRecorder checks transitions land in the flight
// recorder as kind "alert" entries.
func TestAlertStampedIntoRecorder(t *testing.T) {
	reg := obs.NewRegistry()
	rec := obs.NewFlightRecorder()
	e := New(Options{Registry: reg, Recorder: rec, FixedStep: time.Second})
	var v float64
	e.AddSignal(Signal{Name: "g", Kind: KindGauge, Probe: func() (float64, bool) { return v, true }})
	e.AddRule(Rule{Name: "g_high", Signal: "g", Objective: 1, FastWindow: 2 * time.Second, SlowWindow: 2 * time.Second})
	v = 9
	e.Tick()
	entries := rec.Entries()
	if len(entries) != 1 || entries[0].Kind != "alert" || entries[0].Name != "g_high" {
		t.Fatalf("recorder entries = %+v, want one alert for g_high", entries)
	}
	if entries[0].Attrs["state"] != StateFiring {
		t.Errorf("alert attrs = %v, want state=firing", entries[0].Attrs)
	}
}

// TestDefaultRulesCarryTuningHistory pins the adaptive-loop tie-in: the
// default rule set samples the checkpoint-interval gauge, so the health report
// records what the interval was alongside the SLOs it influences. The rule is
// a sanity bound, not an SLO: a live value keeps it ok, and its reported Value
// tracks the gauge, including across a mid-run retune.
func TestDefaultRulesCarryTuningHistory(t *testing.T) {
	e, reg := tickEval(t)
	interval := 30.0
	reg.GaugeFunc("dvdc_checkpoint_interval_seconds", func() float64 { return interval })
	InstallDefaultRules(e, reg)
	for i := 0; i < 3; i++ {
		e.Tick()
	}
	rep := e.Report()
	if !rep.Healthy {
		t.Fatalf("report unhealthy under a sane interval: %+v", rep.Rules)
	}
	var found bool
	for _, rs := range rep.Rules {
		if rs.Name != "checkpoint_interval_sane" {
			continue
		}
		found = true
		if rs.State != StateOK || rs.Value != 30 {
			t.Errorf("checkpoint_interval_sane = state %s value %v, want ok/30", rs.State, rs.Value)
		}
	}
	if !found {
		t.Fatalf("default rules missing checkpoint_interval_sane; have %v", rep.Rules)
	}

	// A retune shows up once the fast window rolls over to the new value.
	interval = 10
	for i := 0; i < 12; i++ {
		e.Tick()
	}
	for _, rs := range e.Report().Rules {
		if rs.Name == "checkpoint_interval_sane" && rs.Value != 10 {
			t.Errorf("checkpoint_interval_sane after retune = %v, want 10", rs.Value)
		}
	}
}
