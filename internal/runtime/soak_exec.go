package runtime

import (
	"fmt"
	"os"
	"slices"
	"strconv"
	"sync"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/service"
)

// soakExec is the soak's service Executor, called in-line by the direct
// driver and by the reconciler in service mode: a decorator over the
// Coordinator's own ExecuteCheckpoint and ExecuteRestore, the executor
// `dvdcctl serve` ships, so both drivers hold the operator's executor to the
// soak's invariants under chaos. It adds only what a harness must: it opens
// and closes the injector's checkpoint window and heals the round's
// partition, mirrors every outcome into the shadow, takes commit casualties'
// daemons down for real, and restarts and repairs every node the
// coordinator holds dead after a recovery. Who owes a recovery is the
// coordinator's record, which daemons run the Cluster's. The harness
// goroutine touches shared state only through the mutex, and only between
// requests.
type soakExec struct {
	e *soakEnv

	mu          sync.Mutex
	partitioned [2]int       // transient partition to heal after the next attempt
	rec         *RoundRecord // the round being driven; each checkpoint's RoundStats fold into it
	violation   error        // invariant broken inside an executor call
}

// beginRound makes rr the record the round's checkpoints fold into, records
// the transient partition the next checkpoint attempt must heal, and takes
// the round's victims down.
func (x *soakExec) beginRound(rr *RoundRecord, partitioned [2]int) {
	x.mu.Lock()
	defer x.mu.Unlock()
	x.rec, x.partitioned, x.violation = rr, partitioned, nil
	x.kill(rr.Kills...)
}

// kill stops the nodes' daemons and logs a kill fault for each it stopped.
func (x *soakExec) kill(nodes ...int) {
	for _, n := range x.e.cl.Kill(nodes...) {
		x.e.inj.RecordKill(n)
	}
}

// account returns any invariant an executor call found broken this round.
func (x *soakExec) account() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.violation
}

// fold adds one checkpoint's RoundStats to the soak round's record. x.mu must
// be held.
func (x *soakExec) fold(st RoundStats) {
	x.rec.ShipCounts.Add(st.ShipCounts)
	x.rec.Aborted = x.rec.Aborted || st.Aborted
	x.rec.DeadDuring = append(x.rec.DeadDuring, st.DeadDuring...)
}

// ExecuteCheckpoint runs the coordinator's checkpoint with the injector's
// probabilistic chaos on and mirrors its outcome into the shadow. The harness
// steps the workloads itself (a retried attempt must not re-step them) and
// submits no Spec.Steps, so steps is always 0.
func (x *soakExec) ExecuteCheckpoint(ctx obs.SpanContext, _ uint64) (uint64, error) {
	e := x.e
	e.inj.Resume()
	epoch, ckErr := e.cl.ExecuteCheckpoint(ctx, 0)
	e.inj.Pause()

	x.mu.Lock()
	defer x.mu.Unlock()
	if x.partitioned[0] >= 0 {
		e.inj.HealPair(x.partitioned[0], x.partitioned[1])
		x.partitioned = [2]int{-1, -1}
	}
	st := e.cl.RoundStats()
	x.fold(st)
	switch {
	case st.Aborted:
		e.shadow.Abort()
	case ckErr == nil:
		if down := e.cl.stoppedNodes(); len(down) > 0 && x.violation == nil {
			x.violation = fmt.Errorf("checkpoint succeeded with dead nodes %v", down)
		}
		e.shadow.Commit()
	default:
		// A partial commit: the epoch advanced and st.DeadDuring are
		// casualties. A casualty whose daemon still runs (persistent injected
		// faults) is taken down for real, so the recovery that follows
		// restarts it cleanly.
		e.shadow.Commit()
		x.kill(st.DeadDuring...)
	}
	return epoch, ckErr
}

// ExecuteRestore runs the coordinator's restore over the named nodes and
// every node it holds pending recovery (commit casualties nobody named), so
// it is level-triggered as the coordinator's is: nodes already restored (by
// an earlier inline casualty recovery, say) answer its probe and owe
// nothing, and the service driver's standing restore request converges as a
// no-op. A new recovery's plan is mirrored into the shadow. Then, while the
// coordinator holds any node dead, the rest of the repair cycle follows,
// mirrored step by step: restart and repair every dead node, re-checkpoint,
// rebalance. The injector must be paused.
func (x *soakExec) ExecuteRestore(ctx obs.SpanContext, nodes []int) (uint64, error) {
	cl, shadow := x.e.cl, x.e.shadow
	named := append(slices.Clone(nodes), cl.pendingRecovery()...)
	slices.Sort(named)
	named = slices.Compact(named)
	before := cl.LastPlan()
	if _, err := cl.ExecuteRestore(ctx, named); err != nil {
		return cl.Epoch(), fmt.Errorf("restore %v: %w", named, err)
	}
	if plan := cl.LastPlan(); plan != before {
		if err := shadow.Recover(plan, cl.Epoch()); err != nil {
			return cl.Epoch(), err
		}
	}
	dead := cl.downNodes()
	if len(dead) == 0 {
		return cl.Epoch(), nil
	}
	for _, v := range dead {
		if err := cl.Start(v); err != nil {
			return cl.Epoch(), fmt.Errorf("restart node %d on %s: %w", v, cl.addrs[v], err)
		}
		x.e.inj.RecordRestart(v)
		if err := cl.Repair(v); err != nil {
			return cl.Epoch(), fmt.Errorf("repair node %d: %w", v, err)
		}
	}
	// The post-recovery checkpoint runs clean: it certifies the repaired
	// cluster can commit before rebalance moves anything.
	if err := cl.CheckpointIn(ctx); err != nil {
		return cl.Epoch(), fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	shadow.Commit()
	x.mu.Lock()
	x.fold(cl.RoundStats())
	x.mu.Unlock()
	rb, err := cl.Rebalance()
	if err != nil {
		return cl.Epoch(), fmt.Errorf("rebalance: %w", err)
	}
	return cl.Epoch(), shadow.Rebalance(rb, cl.Epoch())
}

// Quiesce lets Reconciler.Stop abort staged captures left by an interrupted
// attempt.
func (x *soakExec) Quiesce() error { return x.e.cl.Quiesce() }

// driveDirect is the direct driver: one checkpoint attempt, then the repair
// cycle over the round's victims plus any commit casualties. A failed
// checkpoint is an outcome, not an error — the executor has already mirrored
// it. One attempt per round, no backoff: with probabilistic faults off the
// round digest is a function of the seed.
func (x *soakExec) driveDirect(_ int, rr *RoundRecord) error {
	x.ExecuteCheckpoint(obs.SpanContext{}, 0) //nolint:errcheck // mirrored into the shadow and the round's accumulators
	_, err := x.ExecuteRestore(obs.SpanContext{}, rr.Kills)
	return err
}

// soakService is the service driver: each round submits a Checkpoint request
// (plus a Restore naming the victims on kill rounds) to an in-process Service
// and waits for the serial reconciler to end both: the checkpoint fails
// against the dead victims and backs off, the restore runs the repair cycle,
// and the retry commits. Beyond the shared invariants it asserts request
// convergence and that each round's trace hangs under its reconcile span. It
// also owns the controller restarts.
type soakService struct {
	x         *soakExec
	svc       *service.Service
	opts      service.Options
	restartOn map[int]bool // 0-based rounds whose controller is killed and restarted
	tmpDir    string       // state dir made for the run, removed by close
}

// newSoakService opens and starts the control plane over the executor.
func newSoakService(x *soakExec) (*soakService, error) {
	e, cfg := x.e, x.e.cfg
	sd := &soakService{x: x, restartOn: map[int]bool{}}
	stateDir := cfg.StateDir
	if stateDir == "" && cfg.ControllerRestarts > 0 {
		dir, err := os.MkdirTemp("", "dvdcsoak-state-")
		if err != nil {
			return nil, err
		}
		sd.tmpDir, stateDir = dir, dir
	}
	sd.opts = service.Options{
		// A kill round burns one attempt discovering the victims are dead and
		// converges on the retry after the restore heals the cluster;
		// probabilistic chaos can abort a few more. Short backoff keeps the
		// retry cadence well inside the RPC deadline budget.
		MaxRetries: 6,
		Backoff:    25 * time.Millisecond,
		Tracer:     e.tr,
		Registry:   cfg.Registry,
		StateDir:   stateDir,
		// A small threshold so a multi-round soak exercises compaction, not
		// just appends.
		CompactBytes: 32 << 10,
	}
	svc, err := service.Open(x, sd.opts)
	if err != nil {
		sd.close()
		return nil, err
	}
	sd.svc = svc
	svc.Start()
	// Spread the restarts over rounds 1..Rounds-2 (RunSoak bounds the count):
	// the restarted controller proves itself over at least one more round.
	for i := 1; i <= cfg.ControllerRestarts; i++ {
		sd.restartOn[i*cfg.Rounds/(cfg.ControllerRestarts+1)] = true
	}
	return sd, nil
}

// close stops the current controller and removes a run-made state dir.
func (sd *soakService) close() {
	if sd.svc != nil {
		sd.svc.Stop()
	}
	if sd.tmpDir != "" {
		os.RemoveAll(sd.tmpDir)
	}
}

// drive submits the round's requests, restarts the controller on a restart
// round, waits for both requests to converge, and checks how they did.
func (sd *soakService) drive(r int, rr *RoundRecord) error {
	const tenant = "soak"
	e := sd.x.e
	ck, err := sd.svc.Submit(service.KindCheckpoint, service.Spec{Tenant: tenant})
	if err != nil {
		return fmt.Errorf("submit checkpoint: %v", err)
	}
	reqs := []*service.Request{ck}
	if len(rr.Kills) > 0 {
		rs, err := sd.svc.Submit(service.KindRestore, service.Spec{Tenant: tenant, Nodes: rr.Kills})
		if err != nil {
			return fmt.Errorf("submit restore: %v", err)
		}
		reqs = append(reqs, rs)
	}
	if sd.restartOn[r] {
		if err := sd.restart(reqs); err != nil {
			return err
		}
	}

	timeout := 20 * e.cfg.RPCTimeout
	for i, req := range reqs {
		done, err := sd.svc.WaitTerminal(req.ID, timeout)
		if err != nil {
			return fmt.Errorf("%s request: %v", req.Kind, err)
		}
		reqs[i] = done
		rr.Retries += done.Status.Retries
	}

	// Request convergence. Recovery is mandatory wherever it was owed, and a
	// checkpoint that lost nodes mid-commit must have converged through the
	// inline casualty path rather than giving up. A checkpoint Failed on a
	// clean cluster is the service analog of a direct aborted round (chaos
	// won every attempt) and is tolerated; the liveness floor at the end
	// still bounds how often.
	for _, req := range reqs {
		st := req.Status
		owed := req.Kind == service.KindRestore || len(st.Casualties) > 0
		if owed && st.Phase != service.PhaseSucceeded {
			return fmt.Errorf("%s request %s (casualties %v) ended %s: %s", req.Kind, req.ID, st.Casualties, st.Phase, st.Message)
		}
		if st.ObservedGeneration != req.Generation {
			return fmt.Errorf("request %s observed generation %d behind spec generation %d",
				req.ID, st.ObservedGeneration, req.Generation)
		}
		// Request↔trace linkage: a Succeeded request must carry the trace id
		// of each reconcile attempt, each a closed single-root span tree in
		// the collector — the jump from a request object to the exact
		// protocol rounds that served it.
		if st.Phase != service.PhaseSucceeded {
			continue
		}
		if len(st.TraceIDs) == 0 {
			return fmt.Errorf("request %s succeeded with no trace ids", req.ID)
		}
		for _, hexID := range st.TraceIDs {
			tid, err := strconv.ParseUint(hexID, 16, 64)
			if err != nil {
				return fmt.Errorf("request %s trace id %q not hex: %v", req.ID, hexID, err)
			}
			if _, err := e.checkTrace(tid); err != nil {
				return fmt.Errorf("request %s trace %s: %v", req.ID, hexID, err)
			}
		}
	}
	// The control plane owns the root of every protocol span tree: the
	// round's trace must hang under the reconcile span that drove it.
	tid := e.cl.RoundStats().TraceID
	tree, err := e.checkTrace(tid)
	if err != nil {
		return err
	}
	if root := tree.Root(); root == nil || root.Name != "reconcile" {
		return fmt.Errorf("round trace %016x is not rooted under a reconcile span", tid)
	}

	if sd.restartOn[r+1] {
		// The next round's controller "dies" early: stop the reconciler now,
		// while the cluster is clean — its shutdown quiesce must not race
		// that round's armed faults or dead victims — so the next round's
		// submissions land in the journal untouched (Pending), the way a
		// crash between persisting and scheduling leaves them.
		sd.svc.Reconciler.Stop()
	}
	return nil
}

// restart crashes the controller with the round's requests admitted but
// untouched: it closes the journal out from under everything and brings up a
// fresh service over the same state dir. The replayed store must carry every
// request forward, at no lower revision, still pending — then the restarted
// reconciler has to converge them against the dead victims exactly as a live
// one would.
func (sd *soakService) restart(reqs []*service.Request) error {
	revBefore := sd.svc.Store.Rev()
	if err := sd.svc.Store.Close(); err != nil {
		return fmt.Errorf("close store for controller restart: %v", err)
	}
	next, err := service.Open(sd.x, sd.opts)
	if err != nil {
		return fmt.Errorf("controller restart: %v", err)
	}
	if err := replayedPending(next, revBefore, reqs); err != nil {
		next.Store.Close() //nolint:errcheck // already failing
		return err
	}
	sd.svc = next
	sd.x.e.res.ControllerRestarts++
	next.Start()
	return nil
}

// replayedPending checks a restarted controller's store: revision not
// regressed, every request present and not yet terminal.
func replayedPending(svc *service.Service, revBefore int64, reqs []*service.Request) error {
	if got := svc.Store.Rev(); got < revBefore {
		return fmt.Errorf("store revision regressed across restart: %d -> %d", revBefore, got)
	}
	for _, r := range reqs {
		req, ok := svc.Store.Get(r.ID)
		if !ok {
			return fmt.Errorf("request %s lost across controller restart", r.ID)
		}
		if req.Status.Phase.Terminal() {
			return fmt.Errorf("request %s already %s before the restarted controller ran", r.ID, req.Status.Phase)
		}
	}
	return nil
}
