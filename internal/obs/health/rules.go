package health

import (
	"time"

	"dvdc/internal/obs"
)

// The default cluster rule set's objectives; durations are windowed p99s
// unless noted.
const (
	// roundTimeP99 bounds the whole-round wall clock (dvdc_round_seconds):
	// the paper's 4-node/12-VM layout runs ~18ms rounds, so half a second
	// sustained means something is badly wrong.
	roundTimeP99 = 500 * time.Millisecond
	// recoveryP99 bounds the recovery phase (dvdc_round_phase_seconds,
	// phase="recovery").
	recoveryP99 = 2 * time.Second
	// fsyncP99 bounds journal fsync latency (dvdc_service_journal_fsync_seconds).
	fsyncP99 = 250 * time.Millisecond
	// maxOutliers bounds the mean number of peers the OutlierTracker flags
	// (dvdc_peer_latency_outlier): any peer flagged for a sustained window
	// fires straggler_recurrence.
	maxOutliers = 0.5
	// maxBacklog bounds the mean number of Pending+Scheduled requests
	// (dvdc_service_requests).
	maxBacklog = 8
	// maxRetryRate bounds reconciler retries per second
	// (dvdc_service_retries_total).
	maxRetryRate = 0.5
)

// HistSignal builds a KindHist signal snapshotting one registry histogram.
func HistSignal(reg *obs.Registry, name, metric string, kv ...string) Signal {
	return Signal{Name: name, Kind: KindHist, HistProbe: func() (obs.HistSnapshot, bool) {
		return reg.HistogramSnapshot(metric, kv...)
	}}
}

// GaugeSignal builds a KindGauge signal summing one scalar family.
func GaugeSignal(reg *obs.Registry, name, metric string) Signal {
	return Signal{Name: name, Kind: KindGauge, Probe: func() (float64, bool) {
		return reg.FamilySum(metric), true
	}}
}

// CounterSignal builds a KindCounter signal summing one counter family.
func CounterSignal(reg *obs.Registry, name, metric string) Signal {
	return Signal{Name: name, Kind: KindCounter, Probe: func() (float64, bool) {
		return reg.FamilySum(metric), true
	}}
}

// InstallDefaultRules wires the standard cluster SLOs onto an evaluator:
// round-time p99, recovery duration, journal fsync latency, straggler
// recurrence (OutlierTracker flags), and service reconcile backlog/retry
// rate. Signals a process never feeds (a node daemon has no reconciler)
// simply never accumulate data and their rules stay ok.
func InstallDefaultRules(e *Evaluator, reg *obs.Registry) {
	e.AddSignal(HistSignal(reg, "round_time", "dvdc_round_seconds"))
	e.AddRule(Rule{
		Name: "round_time_p99", Signal: "round_time", Unit: "s",
		Objective: roundTimeP99.Seconds(),
	})

	e.AddSignal(HistSignal(reg, "recovery_time", "dvdc_round_phase_seconds", "phase", "recovery"))
	e.AddRule(Rule{
		Name: "recovery_p99", Signal: "recovery_time", Unit: "s",
		Objective: recoveryP99.Seconds(),
	})

	e.AddSignal(HistSignal(reg, "journal_fsync", "dvdc_service_journal_fsync_seconds"))
	e.AddRule(Rule{
		Name: "journal_fsync_p99", Signal: "journal_fsync", Unit: "s",
		Objective: fsyncP99.Seconds(),
	})

	// The OutlierTracker exports dvdc_peer_latency_outlier{peer} as 0/1 func
	// gauges; the family sum is "how many peers are flagged right now".
	e.AddSignal(GaugeSignal(reg, "stragglers", "dvdc_peer_latency_outlier"))
	e.AddRule(Rule{
		Name: "straggler_recurrence", Signal: "stragglers",
		Objective: maxOutliers,
	})

	e.AddSignal(Signal{Name: "backlog", Kind: KindGauge, Probe: func() (float64, bool) {
		var sum float64
		for _, p := range []string{"Pending", "Scheduled"} {
			if v, ok := reg.Value("dvdc_service_requests", "phase", p); ok {
				sum += v
			}
		}
		return sum, true
	}})
	e.AddRule(Rule{
		Name: "reconcile_backlog", Signal: "backlog",
		Objective: maxBacklog,
	})

	e.AddSignal(CounterSignal(reg, "retries", "dvdc_service_retries_total"))
	e.AddRule(Rule{
		Name: "retry_rate", Signal: "retries",
		Objective: maxRetryRate,
	})

	// The checkpoint interval the adaptive control loop steers rides along as
	// an informational rule with a sanity-bound objective: the evaluator's
	// per-signal ring keeps its history next to the SLOs it influences, so when
	// round_time_p99 fires the health report already answers "what was the
	// interval at the time". A process that never exports the gauge reads the
	// family sum as zero and the rule stays ok.
	e.AddSignal(GaugeSignal(reg, "checkpoint_interval", "dvdc_checkpoint_interval_seconds"))
	e.AddRule(Rule{
		Name: "checkpoint_interval_sane", Signal: "checkpoint_interval", Unit: "s",
		Objective: 24 * time.Hour.Seconds(),
	})
}
