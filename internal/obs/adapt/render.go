package adapt

import (
	"fmt"
	"strings"

	"dvdc/internal/obs/collect"
)

// RuleCounts is one rule's scraped decision tally.
type RuleCounts struct {
	Rule        string
	Recommended float64
	Applied     float64
	Failed      float64
	Skips       map[string]float64 // reason -> count (known reasons only)
}

// Skipped sums the rule's skips across reasons.
func (rc RuleCounts) Skipped() float64 {
	var n float64
	for _, v := range rc.Skips {
		n += v
	}
	return n
}

// View is the cross-process picture of the adaptive control loop,
// reconstructed from one /metrics exposition: per-rule decision tallies plus
// the checkpoint interval and failure rate the decisions steer by. Rule and skip-reason names are a
// closed vocabulary (Rules, SkipReasons), which is what makes a text-format
// scrape renderable without a query language.
type View struct {
	Rules       []RuleCounts
	FailureRate float64 // dvdc_adapt_failure_rate (failures / virtual second)
	Interval    float64 // dvdc_checkpoint_interval_seconds
	Active      bool    // any adapt series present at all
}

// TotalApplied sums applications across rules.
func (v View) TotalApplied() float64 {
	var n float64
	for _, rc := range v.Rules {
		n += rc.Applied
	}
	return n
}

// BuildView reconstructs the advisor's state from a Prometheus text
// exposition (collect.Collector.ScrapeMetrics output or any /metrics body).
func BuildView(exposition string) View {
	v := View{}
	v.FailureRate, _ = collect.MetricValue(exposition, "dvdc_adapt_failure_rate")
	var ok bool
	if v.Interval, ok = collect.MetricValue(exposition, "dvdc_checkpoint_interval_seconds"); ok {
		v.Active = true
	}
	for _, rule := range Rules() {
		rc := RuleCounts{Rule: rule, Skips: map[string]float64{}}
		var any bool
		if n, ok := collect.MetricValue(exposition, "dvdc_adapt_recommendations_total", "rule="+rule); ok {
			rc.Recommended, any = n, true
		}
		if n, ok := collect.MetricValue(exposition, "dvdc_adapt_applies_total", "rule="+rule); ok {
			rc.Applied, any = n, true
		}
		if n, ok := collect.MetricValue(exposition, "dvdc_adapt_failures_total", "rule="+rule); ok {
			rc.Failed, any = n, true
		}
		for _, reason := range SkipReasons() {
			if n, ok := collect.MetricValue(exposition, "dvdc_adapt_skips_total", "rule="+rule, "reason="+reason); ok && n > 0 {
				rc.Skips[reason] = n
				any = true
			}
		}
		if any {
			v.Active = true
		}
		v.Rules = append(v.Rules, rc)
	}
	return v
}

// RenderView renders the scraped control-loop state as a terminal panel.
func RenderView(v View) string {
	var b strings.Builder
	if !v.Active {
		b.WriteString("adaptive control loop: no dvdc_adapt_* series exported\n")
		return b.String()
	}
	fmt.Fprintf(&b, "tuning   interval=%.1fs failure-rate=%.4f/s\n", v.Interval, v.FailureRate)
	fmt.Fprintf(&b, "%-18s %12s %8s %7s %7s  %s\n",
		"rule", "recommended", "applied", "failed", "skipped", "skip reasons")
	for _, rc := range v.Rules {
		var reasons []string
		for _, reason := range SkipReasons() {
			if n := rc.Skips[reason]; n > 0 {
				reasons = append(reasons, fmt.Sprintf("%s=%.0f", reason, n))
			}
		}
		fmt.Fprintf(&b, "%-18s %12.0f %8.0f %7.0f %7.0f  %s\n",
			rc.Rule, rc.Recommended, rc.Applied, rc.Failed, rc.Skipped(), strings.Join(reasons, " "))
	}
	return b.String()
}

// RenderDecisions renders an in-process decision log as the advisor's paper
// trail: inputs -> rule -> action, one line per decision, oldest first.
func RenderDecisions(ds []Decision) string {
	var b strings.Builder
	if len(ds) == 0 {
		b.WriteString("no adaptation decisions\n")
		return b.String()
	}
	fmt.Fprintf(&b, "%5s  %-18s %-8s %-46s %s\n", "round", "rule", "action", "detail", "inputs")
	for _, d := range ds {
		var inputs []string
		for _, k := range sortedKeys(d.Inputs) {
			inputs = append(inputs, k+"="+d.Inputs[k])
		}
		detail := d.Detail
		if d.Action != ActionApplied && d.Reason != "" {
			detail = fmt.Sprintf("%s (%s)", detail, d.Reason)
		}
		fmt.Fprintf(&b, "%5d  %-18s %-8s %-46s %s\n",
			d.Round, d.Rule, d.Action, detail, strings.Join(inputs, " "))
	}
	return b.String()
}
