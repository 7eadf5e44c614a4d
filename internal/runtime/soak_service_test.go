package runtime

import (
	"strings"
	"testing"
	"time"

	"dvdc/internal/chaos"
	"dvdc/internal/obs"
	"dvdc/internal/service"
)

// TestSoakServiceReconcileUnderFault is the acceptance gate for the
// declarative control plane under fault: the full chaos soak (armed one-shot
// faults, transient partitions, Poisson node kills) driven entirely through
// service requests. On a kill round the checkpoint request's first attempt
// fails against the dead victims, enters backoff, and the reconciler runs the
// queued restore request's repair cycle before the retry commits — every
// round RunSoak asserts both requests reached a terminal phase with current
// observed generations, recovery Succeeded, the cluster's state bit-matches
// the shadow model, and the round trace is rooted under a reconcile span.
//
// Same-seed digest equality is deliberately NOT asserted in service mode:
// the number of checkpoint attempts a kill round burns depends on whether the
// restore request was enqueued before or after the first attempt's backoff
// expired, and extra aborted attempts shift the (informational) shipped-bytes
// tallies. Convergence and state invariants hold regardless.
func TestSoakServiceReconcileUnderFault(t *testing.T) {
	reg := obs.NewRegistry()
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        8,
		StepsPerRound: 25,
		Seed:          424242,
		ArmPerRound:   2,
		PPartition:    0.2,
		KillMTBF:      120,
		Service:       true,
		Registry:      reg,
		// Kill the controller twice mid-soak: the journal under a temp state
		// dir must carry each interrupted round's requests across the restart,
		// and every shadow/convergence assertion below stays in force.
		ControllerRestarts: 2,
		StateDir:           t.TempDir(),
	}
	// The kill plan is a pure function of the seed; the reconcile-under-fault
	// path only exists if this seed actually schedules kills.
	plan, err := chaos.PlanPoissonKills(cfg.Layout.Nodes, cfg.Layout.Tolerance, cfg.Rounds, cfg.KillMTBF, 10, cfg.Seed)
	if err != nil {
		t.Fatal(err)
	}
	if plan.TotalKills() == 0 {
		t.Fatalf("seed %d schedules no kills; pick a seed that does", cfg.Seed)
	}

	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("service soak failed: %v\nfault log:\n%s", err, faultLines(res))
	}
	if len(res.Rounds) != cfg.Rounds {
		t.Fatalf("recorded %d rounds, want %d", len(res.Rounds), cfg.Rounds)
	}
	if res.Epoch == 0 {
		t.Fatal("service soak committed no epochs")
	}
	if res.Counters["kill"] == 0 || res.Counters["restart"] == 0 {
		t.Errorf("kill/restart never exercised: counters %v", res.Counters)
	}

	killRounds, reconcileRetries := 0, 0
	for _, rr := range res.Rounds {
		if len(rr.Kills) > 0 {
			killRounds++
		}
		reconcileRetries += rr.Retries
	}
	if killRounds == 0 {
		t.Fatal("no round recorded a kill despite a non-empty kill plan")
	}
	// Every kill round burns at least one checkpoint attempt against the dead
	// victims before the restore heals the cluster.
	if reconcileRetries == 0 {
		t.Error("kill rounds recorded no reconcile retries: the fail/backoff/recover path never ran")
	}

	// The control plane's metrics must account for the harness's submissions:
	// one checkpoint request per round, one restore request per kill round.
	ckSubmitted := reg.Counter("dvdc_service_requests_total",
		"tenant", "soak", "kind", string(service.KindCheckpoint)).Value()
	if ckSubmitted != int64(cfg.Rounds) {
		t.Errorf("dvdc_service_requests_total{kind=Checkpoint} = %d, want %d", ckSubmitted, cfg.Rounds)
	}
	rsSubmitted := reg.Counter("dvdc_service_requests_total",
		"tenant", "soak", "kind", string(service.KindRestore)).Value()
	if rsSubmitted != int64(killRounds) {
		t.Errorf("dvdc_service_requests_total{kind=Restore} = %d, want %d", rsSubmitted, killRounds)
	}
	if n := reg.Counter("dvdc_service_reconciles_total",
		"result", "succeeded", "kind", string(service.KindCheckpoint)).Value(); n == 0 {
		t.Error("dvdc_service_reconciles_total{result=succeeded,kind=Checkpoint} never incremented")
	}
	if n := reg.Counter("dvdc_service_retries_total", "tenant", "soak").Value(); n == 0 {
		t.Error("dvdc_service_retries_total{tenant=soak} never incremented despite kill rounds")
	}
	if n := reg.Counter("dvdc_service_admission_rejected_total",
		"tenant", "soak", "reason", "quota").Value(); n != 0 {
		t.Errorf("harness submissions hit the quota gate %d times", n)
	}

	// Durability: both scheduled controller restarts happened, every mutation
	// went through the journal, and each append and each compaction fsynced.
	if res.ControllerRestarts != cfg.ControllerRestarts {
		t.Errorf("performed %d controller restarts, want %d", res.ControllerRestarts, cfg.ControllerRestarts)
	}
	appends := reg.Counter("dvdc_service_journal_appends_total").Value()
	if appends == 0 {
		t.Error("dvdc_service_journal_appends_total never incremented despite a durable soak")
	}
	fsyncs := reg.Counter("dvdc_service_journal_fsyncs_total").Value()
	compactions := reg.Counter("dvdc_service_journal_compactions_total").Value()
	if fsyncs != appends+compactions {
		t.Errorf("journal fsyncs = %d for %d appends and %d compactions, want one each", fsyncs, appends, compactions)
	}
}

// TestSoakServiceJournalSyncsEveryAppend: an acknowledged request is on
// stable storage. A durable service-mode soak ends with exactly one journal
// fsync per append (six rounds compact nothing).
func TestSoakServiceJournalSyncsEveryAppend(t *testing.T) {
	reg := obs.NewRegistry()
	if _, err := RunSoak(SoakConfig{
		Layout:   paperLayout(t),
		Rounds:   6,
		Seed:     424242,
		Service:  true,
		Registry: reg,
		StateDir: t.TempDir(),
	}); err != nil {
		t.Fatal(err)
	}
	appends := reg.Counter("dvdc_service_journal_appends_total").Value()
	fsyncs := reg.Counter("dvdc_service_journal_fsyncs_total").Value()
	t.Logf("%d appends, %d fsyncs", appends, fsyncs)
	if appends == 0 || fsyncs != appends {
		t.Errorf("journal fsyncs = %d for %d appends, want one per append", fsyncs, appends)
	}
}

// TestSoakRejectsUndeliverableControllerRestarts pins the restart schedule's
// bound: restarts are spread over rounds 1..Rounds-2 (none on the first, none
// on the last), so more than Rounds-2 of them either collide on one round —
// performing fewer than asked — or land on the last round. RunSoak refuses
// such a config before booting anything.
func TestSoakRejectsUndeliverableControllerRestarts(t *testing.T) {
	for _, tc := range []struct{ rounds, restarts int }{
		{2, 3}, // would collide: 2 restarts performed, 3 asked
		{3, 2}, // would restart on the last round
	} {
		_, err := RunSoak(SoakConfig{
			Layout:             paperLayout(t),
			Rounds:             tc.rounds,
			Seed:               1,
			Service:            true,
			ControllerRestarts: tc.restarts,
		})
		if err == nil || !strings.Contains(err.Error(), "ControllerRestarts") {
			t.Errorf("Rounds %d, ControllerRestarts %d: err = %v, want a ControllerRestarts refusal",
				tc.rounds, tc.restarts, err)
		}
	}
}

// TestSoakRejectsInvalidSlowPlan pins the slow-node plan's bounds: a slowed
// node outside the layout slows nothing, and a window that ends before it
// starts would slow the node from SlowFrom through the last round. RunSoak
// refuses both before booting anything.
func TestSoakRejectsInvalidSlowPlan(t *testing.T) {
	for _, tc := range []struct {
		name              string
		node, from, until int
	}{
		{"node past the layout", 9, 0, 0},
		{"negative node", -1, 0, 0},
		{"window ends before it starts", 1, 2, 1},
		{"empty window", 1, 2, 2},
	} {
		_, err := RunSoak(SoakConfig{
			Layout:    paperLayout(t),
			Rounds:    4,
			Seed:      1,
			SlowDelay: time.Millisecond,
			SlowNode:  tc.node,
			SlowFrom:  tc.from,
			SlowUntil: tc.until,
		})
		if err == nil || !strings.Contains(err.Error(), "slow plan") {
			t.Errorf("%s: err = %v, want a slow plan refusal", tc.name, err)
		}
	}
}

// TestSoakServiceChunkFaults runs the service-driven soak with the chunked
// data path forced small and one-shot chunk-frame faults armed every round:
// the reconciler's checkpoint attempts must absorb faults landing on
// individual MsgDeltaChunk shipments (pool retries + keeper-side dedup) while
// kills still route through the restore request's repair cycle.
func TestSoakServiceChunkFaults(t *testing.T) {
	cfg := SoakConfig{
		Layout:        paperLayout(t),
		Rounds:        8,
		StepsPerRound: 25,
		Seed:          31337,
		ChunkSize:     256,
		ChunkFaults:   2,
		ArmPerRound:   1,
		PPartition:    0.2,
		KillMTBF:      150,
		Service:       true,
	}
	res, err := RunSoak(cfg)
	if err != nil {
		t.Fatalf("service soak failed: %v\nfault log:\n%s", err, faultLines(res))
	}
	chunkFaults := 0
	for _, f := range res.FaultLog {
		if f.Armed && f.Pair.Src != chaos.Coordinator {
			chunkFaults++
		}
	}
	if chunkFaults == 0 {
		t.Error("no armed chunk-frame fault fired under the service-driven soak")
	}
}
