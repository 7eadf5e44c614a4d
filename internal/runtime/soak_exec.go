package runtime

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/service"
)

// soakExec is the only code in the soak that runs a checkpoint or a repair
// cycle: the service layer's Executor, called in-line by the direct driver
// and by the reconciler in service mode. Unlike the Coordinator's own
// Executor methods it mirrors every outcome into the shadow and the chaos bookkeeping, and takes
// commit-declared casualties' daemons down for real. The harness goroutine
// touches shared state only through the mutex, and only between requests.
type soakExec struct {
	e *soakEnv

	mu          sync.Mutex
	downNow     map[int]bool // daemons currently closed, awaiting restore
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
	for _, v := range rr.Kills {
		x.takeDown(v)
	}
}

// takeDown closes node n's daemon and records the kill, unless it is already
// down. x.mu must be held.
func (x *soakExec) takeDown(n int) {
	if x.downNow[n] {
		return
	}
	x.e.cl.Kill(n)
	x.e.inj.RecordKill(n)
	x.downNow[n] = true
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

// ExecuteCheckpoint runs one chaos-exposed checkpoint round and mirrors its
// outcome into the shadow. The harness steps the workloads itself (a retried
// attempt must not re-step them) and submits no Spec.Steps, so steps is
// always 0.
func (x *soakExec) ExecuteCheckpoint(ctx obs.SpanContext, _ uint64) (uint64, error) {
	e := x.e
	e.inj.Resume()
	ckErr := e.cl.CheckpointIn(ctx)
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
		if len(x.downNow) > 0 && x.violation == nil {
			var down []int
			for n := range x.downNow {
				down = append(down, n)
			}
			sort.Ints(down)
			x.violation = fmt.Errorf("checkpoint succeeded with dead nodes %v", down)
		}
		e.shadow.Commit()
	default:
		// A partial commit: the epoch advanced and st.DeadDuring are
		// casualties. A casualty whose daemon still runs (persistent injected
		// faults) is taken down for real, so the recovery that follows
		// restarts it cleanly.
		e.shadow.Commit()
		for _, n := range st.DeadDuring {
			x.takeDown(n)
		}
	}
	return e.cl.Epoch(), ckErr
}

// ExecuteRestore runs the full repair cycle over whichever of the named nodes
// are actually down, level-triggered: nodes already restored (an earlier
// inline casualty recovery, say) are skipped, so the service driver's
// standing restore request converges as a no-op when the checkpoint's own
// reconcile already healed the cluster.
func (x *soakExec) ExecuteRestore(ctx obs.SpanContext, nodes []int) (uint64, error) {
	e := x.e
	need := map[int]bool{}
	x.mu.Lock()
	for _, n := range nodes {
		if x.downNow[n] {
			need[n] = true
		}
	}
	// Anything the coordinator holds as pending recovery (commit casualties)
	// is owed a pass even if nobody named it; its daemon comes down first so
	// the restart binds the same address cleanly.
	for _, n := range e.cl.pendingRecovery() {
		x.takeDown(n)
		need[n] = true
	}
	x.mu.Unlock()
	if len(need) == 0 {
		return e.cl.Epoch(), nil
	}
	var down []int
	for n := range need {
		down = append(down, n)
	}
	sort.Ints(down)
	if err := x.recoverAndRepair(ctx, down); err != nil {
		return e.cl.Epoch(), err
	}
	x.mu.Lock()
	for _, n := range down {
		delete(x.downNow, n)
	}
	x.fold(e.cl.RoundStats()) // the repair cycle's post-recovery checkpoint
	x.mu.Unlock()
	return e.cl.Epoch(), nil
}

// recoverAndRepair runs the fault-free repair cycle over down nodes, mirrored
// into the shadow step by step: recover, restart the daemons at their
// addresses, repair, re-checkpoint, rebalance. The injector must be paused.
// A valid parent context nests the cycle's spans under the caller's.
func (x *soakExec) recoverAndRepair(parent obs.SpanContext, down []int) error {
	e := x.e
	plan, err := e.cl.RecoverNodesIn(parent, down...)
	if err != nil {
		return fmt.Errorf("recover %v: %w", down, err)
	}
	if err := e.shadow.Recover(plan, e.cl.Epoch()); err != nil {
		return err
	}
	for _, v := range down {
		if err := e.cl.Start(v); err != nil {
			return fmt.Errorf("restart node %d on %s: %w", v, e.cl.addrs[v], err)
		}
		e.cl.nodes[v].SetRPCTimeout(e.cfg.RPCTimeout)
		e.inj.RecordRestart(v)
		if err := e.cl.Repair(v); err != nil {
			return fmt.Errorf("repair node %d: %w", v, err)
		}
	}
	// The post-recovery checkpoint runs clean: it certifies the repaired
	// cluster can commit before rebalance moves anything.
	if err := e.cl.CheckpointIn(parent); err != nil {
		return fmt.Errorf("post-recovery checkpoint: %w", err)
	}
	e.shadow.Commit()
	rb, err := e.cl.Rebalance()
	if err != nil {
		return fmt.Errorf("rebalance: %w", err)
	}
	return e.shadow.Rebalance(rb, e.cl.Epoch())
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
