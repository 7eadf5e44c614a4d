package runtime

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/adapt"
)

// adaptLayout builds the 6-node, 18-VM, groupSize-3 distributed layout used
// by the adaptive soaks. Unlike the paper's minimal 4-node Fig. 4 (where
// every other node already carries an element of every group and keeper
// evacuation is structurally impossible), each group here leaves two nodes
// free, so a flagged keeper can always be drained orthogonally.
func adaptLayout(t *testing.T) *cluster.Layout {
	t.Helper()
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	return layout
}

// meanWall averages the checkpoint wall clock of rounds [from, to] (1-based,
// inclusive).
func meanWall(rounds []RoundRecord, from, to int) time.Duration {
	var sum time.Duration
	var n int
	for _, rr := range rounds {
		if rr.Round >= from && rr.Round <= to {
			sum += rr.Wall
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return sum / time.Duration(n)
}

// TestSoakServiceAdaptive runs the advisor under the service driver: it
// steps after each round's verification, when every request is terminal and
// the reconciler idle, so its placement and tuning changes serialize with
// nothing in flight. The full invariant battery and the request-convergence
// checks must hold with a slow keeper from round 1, and the advisor's gauges
// must be exported. How fast the round wall converges is
// TestSoakAdaptiveConvergesUnderSlowNode's business, not this test's.
func TestSoakServiceAdaptive(t *testing.T) {
	reg := obs.NewRegistry()
	res, err := RunSoak(SoakConfig{
		Layout:        adaptLayout(t),
		Rounds:        6,
		StepsPerRound: 24,
		Pages:         64,
		PageSize:      256,
		ChunkSize:     512,
		Seed:          7,
		SlowDelay:     25 * time.Millisecond,
		SlowNode:      1,
		SlowFrom:      1,
		Service:       true,
		Adaptive:      true,
		Registry:      reg,
	})
	if err != nil {
		t.Fatalf("service soak with the advisor: %v\nfault log:\n%s", err, faultLines(res))
	}
	if len(res.Rounds) != 6 {
		t.Fatalf("recorded %d rounds, want 6", len(res.Rounds))
	}
	if _, ok := reg.Value("dvdc_adapt_failure_rate"); !ok {
		t.Error("dvdc_adapt_failure_rate not exported under the service driver")
	}
}

// TestSoakIntervalRetuneDecisions runs the shape of
//
//	dvdcsoak -seed 424242 -nodes 8 -group-size 3 -rounds 10 -kill-mtbf 150 \
//	  -p-corrupt 0 -p-drop 0 -p-delay 0 -p-partition 0 -adaptive
//
// and pins its interval_retune decisions. The failure rate counts each
// round's seeded kills and the nodes its seeded faults leave dead, so these
// rows follow from the seed and the advisor's tuning, which is measured in
// base intervals: the half-life the rate decays at, the exposure it waits
// for before engaging, the cap of the optimal-interval search, the cooldown
// and the tolerance band. The keeper_rebalance rows depend on timing and are
// not pinned.
func TestSoakIntervalRetuneDecisions(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(8, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunSoak(SoakConfig{
		Layout:      layout,
		Rounds:      10,
		Seed:        424242,
		ArmPerRound: 2,
		KillMTBF:    150,
		Adaptive:    true,
		Registry:    obs.NewRegistry(),
	})
	if err != nil {
		t.Fatalf("adaptive soak: %v\nfault log:\n%s", err, faultLines(res))
	}
	var got []string
	for _, rr := range res.Rounds {
		for _, d := range rr.Adapt {
			if d.Rule == adapt.RuleIntervalRetune {
				got = append(got, fmt.Sprintf("%d %s %s %q failure_rate=%s",
					d.Round, d.Action, d.Reason, d.Detail, d.Inputs["failure_rate"]))
			}
		}
	}
	want := []string{
		`3 applied  "retune checkpoint interval 10.0s -> 7.1s" failure_rate=0.0332/s`,
		`5 skipped cooldown "retune checkpoint interval 7.1s -> 10.0s" failure_rate=0.0176/s`,
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("interval_retune decisions:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestSoakAdaptiveConvergesUnderSlowNode is the ROADMAP convergence
// experiment: under identical pinned-seed slow-node chaos (a keeper whose
// data-plane ingest delays every bulk frame shipped to it), the adaptive
// cluster's round time must converge back toward the pre-fault baseline —
// the advisor flags the keeper as a habitual outlier and drains its parity
// to orthogonal nodes — while the static cluster's round time stays pinned
// at the injected delay for the rest of the run. Both runs keep the full
// shadow-invariant battery green, and every applied decision is traceable
// through the round record, the dvdc_adapt_* metric family, the postmortem
// bundle, and the dvdcctl adapt renderers.
func TestSoakAdaptiveConvergesUnderSlowNode(t *testing.T) {
	const (
		rounds   = 16
		slowFrom = 3 // 0-based: first slow round is 1-based round 4
		delay    = 25 * time.Millisecond
	)
	run := func(adaptive bool) (*SoakResult, *obs.Registry, *obs.Tracer) {
		reg := obs.NewRegistry()
		tr := obs.NewTracer(1 << 15)
		res, err := RunSoak(SoakConfig{
			Layout:        adaptLayout(t),
			Rounds:        rounds,
			StepsPerRound: 24,
			Pages:         64,
			PageSize:      256,
			ChunkSize:     512,
			Seed:          7,
			SlowDelay:     delay,
			SlowNode:      1,
			SlowFrom:      slowFrom,
			SlowUntil:     0, // through the last round: only adaptation can help
			Adaptive:      adaptive,
			Registry:      reg,
			Tracer:        tr,
		})
		if err != nil {
			t.Fatalf("soak (adaptive=%v): %v", adaptive, err)
		}
		return res, reg, tr
	}
	static, _, _ := run(false)
	adaptiveRes, reg, tr := run(true)

	// Round 1 pays one-time setup costs; rounds 2..slowFrom are the clean
	// baseline, the last four rounds the post-fault steady state.
	baseline := meanWall(adaptiveRes.Rounds, 2, slowFrom)
	staticTail := meanWall(static.Rounds, rounds-3, rounds)
	adaptiveTail := meanWall(adaptiveRes.Rounds, rounds-3, rounds)
	if baseline <= 0 || staticTail <= 0 || adaptiveTail <= 0 {
		t.Fatalf("missing walls: baseline=%v staticTail=%v adaptiveTail=%v", baseline, staticTail, adaptiveTail)
	}
	// The static cluster cannot shed the keeper: every round keeps paying the
	// ingest delay on at least one serialized delta ship.
	if staticTail < delay*4/5 {
		t.Errorf("static tail %v implausibly below the injected %v delay", staticTail, delay)
	}
	// The adaptive cluster must land measurably below static and within a
	// bounded factor of its own pre-fault baseline.
	if adaptiveTail >= staticTail/2 {
		t.Errorf("adaptive tail %v did not converge (static tail %v)", adaptiveTail, staticTail)
	}
	if adaptiveTail > baseline*5 {
		t.Errorf("adaptive tail %v not within 5x pre-fault baseline %v", adaptiveTail, baseline)
	}

	// The convergence must come from an applied keeper rebalance, recorded on
	// the round that applied it, naming the slow node.
	var applied []adapt.Decision
	var all []adapt.Decision
	for _, rr := range adaptiveRes.Rounds {
		all = append(all, rr.Adapt...)
		for _, d := range rr.Adapt {
			if d.Rule == adapt.RuleKeeperRebalance && d.Action == adapt.ActionApplied {
				applied = append(applied, d)
			}
		}
	}
	if len(applied) == 0 {
		t.Fatalf("no applied keeper_rebalance decision; decisions:\n%s", adapt.RenderDecisions(all))
	}
	d := applied[0]
	if d.Inputs["peer"] != "node1" {
		t.Errorf("keeper rebalance drained %q, want node1", d.Inputs["peer"])
	}
	if d.Inputs["p99 node1"] == "" || d.Inputs["cluster_median"] == "" {
		t.Errorf("decision inputs missing outlier evidence: %v", d.Inputs)
	}
	for _, rr := range static.Rounds {
		if len(rr.Adapt) != 0 {
			t.Fatalf("static run recorded decisions: %+v", rr.Adapt)
		}
	}

	// End-to-end traceability of the applied decision: metric family, its
	// decision span in the postmortem bundle, decision-log rendering, and the
	// scraped dvdcctl adapt view.
	if v, _ := reg.Value("dvdc_adapt_applies_total", "rule", adapt.RuleKeeperRebalance); v < 1 {
		t.Errorf("dvdc_adapt_applies_total{keeper_rebalance} = %v, want >= 1", v)
	}
	path, err := obs.Dump(t.TempDir(), "probe", tr, reg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := obs.ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	var spanned bool
	for _, s := range b.Spans {
		if s.Name == "adapt "+adapt.RuleKeeperRebalance && s.Attrs["action"] == adapt.ActionApplied {
			spanned = true
			break
		}
	}
	if !spanned {
		t.Error("no applied keeper_rebalance decision span in the postmortem bundle")
	}
	log := adapt.RenderDecisions(all)
	if !strings.Contains(log, adapt.RuleKeeperRebalance) || !strings.Contains(log, adapt.ActionApplied) {
		t.Errorf("decision log missing the applied rebalance:\n%s", log)
	}
	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	view := adapt.BuildView(sb.String())
	if !view.Active || view.TotalApplied() < 1 {
		t.Errorf("scraped adapt view inactive or empty: %+v", view)
	}
}
