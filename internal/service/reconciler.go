package service

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dvdc/internal/obs"
)

// Executor is the reconciler's seam to the runtime: the two protocol
// operations a request can demand, each taking the reconcile span's context
// so the round's span tree roots under the reconcile attempt that drove it.
// Implementations execute synchronously and are called from exactly one
// goroutine at a time — the reconciler serializes execution because the
// underlying coordinator runs one protocol round at a time.
type Executor interface {
	// ExecuteCheckpoint runs steps workload steps (0 = none) and one
	// two-phase checkpoint round, returning the committed epoch. An error
	// implementing CasualtyError means the round committed but lost the
	// named nodes mid-commit; any other error means the round did not
	// commit and may be retried.
	ExecuteCheckpoint(ctx obs.SpanContext, steps uint64) (epoch uint64, err error)
	// ExecuteRestore drives the recovery protocol over the named failed
	// nodes, returning the epoch the recovery certified. Nodes already
	// healthy are skipped — restores are level-triggered, so re-reconciling
	// an already-converged restore is a cheap no-op.
	ExecuteRestore(ctx obs.SpanContext, nodes []int) (epoch uint64, err error)
}

// CasualtyError classifies executor errors that name mid-round node deaths
// (the runtime's *PartialCommitError satisfies it): the epoch advanced, the
// nodes are gone, and the reconciler must drive recovery before the request
// can converge.
type CasualtyError interface {
	error
	CasualtyNodes() []int
}

// Quiescer is optionally implemented by executors that can abort staged
// protocol state; the reconciler calls it once on Stop so a request
// interrupted between attempts leaves no staged captures behind.
type Quiescer interface {
	Quiesce() error
}

// Reconciler defaults.
const (
	// DefaultMaxRetries is the execution attempts per request before Failed.
	DefaultMaxRetries = 4
	// DefaultBackoff is the base retry delay, doubled per failed attempt.
	DefaultBackoff = 100 * time.Millisecond
)

// Reconciler drives every stored request to a terminal phase: it promotes
// Pending objects into the priority queue, executes the queue one request at
// a time (priority descending, submission order within a priority), retries
// failed attempts with exponential backoff up to the retry budget, and
// recovers mid-round casualties inline. It is level-triggered: each pass
// re-reads the store and acts on what it finds, so a crash-restart of the
// loop (or a request re-submitted after a partial run) converges the same
// way a clean run does.
type Reconciler struct {
	store      *Store
	exec       Executor
	tracer     *obs.Tracer
	reg        *obs.Registry
	maxRetries int
	backoff    time.Duration

	nextAttempt map[string]time.Time // backoff deadlines by request id

	stop chan struct{}
	done chan struct{}
}

// ReconcilerOptions tunes a reconciler; the zero value picks defaults.
type ReconcilerOptions struct {
	MaxRetries int           // attempts per request before Failed (<=0 = DefaultMaxRetries)
	Backoff    time.Duration // base retry delay (<=0 = DefaultBackoff)
	Tracer     *obs.Tracer   // reconcile spans (nil = untraced)
	Registry   *obs.Registry // dvdc_service_* metrics (nil = unmetered)
}

// NewReconciler wires a reconciler to a store and an executor. Call Run (or
// Service.Start) to begin reconciling.
func NewReconciler(store *Store, exec Executor, opts ReconcilerOptions) *Reconciler {
	if opts.MaxRetries <= 0 {
		opts.MaxRetries = DefaultMaxRetries
	}
	if opts.Backoff <= 0 {
		opts.Backoff = DefaultBackoff
	}
	return &Reconciler{
		store:       store,
		exec:        exec,
		tracer:      opts.Tracer,
		reg:         opts.Registry,
		maxRetries:  opts.MaxRetries,
		backoff:     opts.Backoff,
		nextAttempt: map[string]time.Time{},
		stop:        make(chan struct{}),
		done:        make(chan struct{}),
	}
}

// Run reconciles until Stop, blocking the calling goroutine.
func (r *Reconciler) Run() {
	defer close(r.done)
	for {
		select {
		case <-r.stop:
			return
		default:
		}
		// Subscribe before looking: a write that lands while this pass is
		// still reading (or right after it found nothing) closes this channel,
		// so the wait below returns at once instead of sleeping through it.
		changed := r.store.Changed()
		progressed := r.reconcileOnce()
		r.exportPhases()
		if progressed {
			continue
		}
		// Nothing ready: sleep until the store changes, the earliest backoff
		// deadline passes, or Stop.
		wait := time.Hour
		now := time.Now()
		for _, t := range r.nextAttempt {
			if d := t.Sub(now); d < wait {
				wait = d
			}
		}
		if wait < time.Millisecond {
			wait = time.Millisecond
		}
		timer := time.NewTimer(wait)
		select {
		case <-r.stop:
			timer.Stop()
			return
		case <-changed:
			timer.Stop()
		case <-timer.C:
		}
	}
}

// Stop halts the loop after the in-flight attempt (if any) finishes, then
// quiesces the executor so no staged protocol state outlives the service.
func (r *Reconciler) Stop() {
	select {
	case <-r.stop:
	default:
		close(r.stop)
	}
	<-r.done
	if q, ok := r.exec.(Quiescer); ok {
		q.Quiesce() //nolint:errcheck // best effort: the cluster may already be gone
	}
}

// reconcileOnce makes one pass: promote Pending requests, re-queue orphaned
// InProgress ones, then execute the best ready Scheduled request. Returns
// whether it did anything.
func (r *Reconciler) reconcileOnce() bool {
	reqs := r.store.List("")
	progressed := false
	for _, req := range reqs {
		switch req.Status.Phase {
		case PhasePending:
			if r.transition(req.ID, PhaseScheduled, func(now time.Time, req *Request) {
				req.Status.setCondition(now, CondScheduled, true, "Queued", "entered the priority queue")
			}) == nil {
				progressed = true
			}
		case PhaseInProgress:
			// Only a dead controller leaves InProgress behind: this loop is
			// the sole phase writer and holds InProgress exactly for the
			// duration of a synchronous attempt, so finding it at the top of a
			// pass means the attempt's process is gone. Re-queue and re-drive;
			// the executor is level-triggered, so an attempt that actually
			// finished before the crash converges as a cheap no-op.
			if r.transition(req.ID, PhaseScheduled, func(now time.Time, req *Request) {
				req.Status.setCondition(now, CondScheduled, true, "Queued", "entered the priority queue")
				req.Status.setCondition(now, CondResumed, true, "ControllerRestart",
					"found in flight at controller start; re-driving the attempt")
			}) == nil {
				progressed = true
				if r.reg != nil {
					r.reg.Counter("dvdc_service_resumes_total", "kind", string(req.Kind)).Inc()
				}
			}
		}
	}
	if pick := r.pick(); pick != nil {
		return r.execute(pick) || progressed
	}
	return progressed
}

// pick selects the next Scheduled request whose backoff deadline has passed:
// highest priority first, submission order within a priority.
func (r *Reconciler) pick() *Request {
	now := time.Now()
	var ready []*Request
	for _, req := range r.store.List("") {
		if req.Status.Phase != PhaseScheduled && req.Status.Phase != PhasePending {
			continue
		}
		if t, ok := r.nextAttempt[req.ID]; ok && now.Before(t) {
			continue
		}
		ready = append(ready, req)
	}
	if len(ready) == 0 {
		return nil
	}
	// List returns submission order; a stable sort by priority preserves it
	// within each priority class.
	sort.SliceStable(ready, func(i, j int) bool {
		return ready[i].Spec.Priority > ready[j].Spec.Priority
	})
	return ready[0]
}

// execute runs one attempt of one request and lands the outcome in status,
// reporting whether it made progress (false when the store refused the
// InProgress write, so the loop parks rather than re-picking forever).
func (r *Reconciler) execute(req *Request) bool {
	attempt := req.Status.Retries + 1
	// Root the attempt's trace before the InProgress write so the journaled
	// status already links to it: a controller killed mid-attempt replays a
	// request that still names the trace its rounds ran under.
	span := r.tracer.Start(obs.SpanContext{}, "reconcile", "coord")
	span.SetAttr("request", req.ID)
	span.SetAttr("kind", string(req.Kind))
	span.SetAttr("tenant", req.Spec.Tenant)
	span.SetAttr("attempt", fmt.Sprintf("%d", attempt))
	ctx := span.ContextOr(obs.SpanContext{})

	if err := r.transition(req.ID, PhaseInProgress, func(now time.Time, req *Request) {
		req.Status.ObservedGeneration = req.Generation
		req.Status.setCondition(now, CondExecuting, true, "Attempt",
			fmt.Sprintf("attempt %d of %d", attempt, r.maxRetries))
		if span.TraceID() != 0 {
			req.Status.addTraceID(fmt.Sprintf("%016x", span.TraceID()))
		}
	}); err != nil {
		span.FinishErr(err)
		return false
	}

	t0 := time.Now()
	var epoch uint64
	var err error
	switch req.Kind {
	case KindRestore:
		epoch, err = r.exec.ExecuteRestore(ctx, req.Spec.Nodes)
	default:
		epoch, err = r.exec.ExecuteCheckpoint(ctx, req.Spec.Steps)
	}
	if r.reg != nil {
		r.reg.Histogram("dvdc_service_reconcile_seconds", obs.LatencyBuckets(),
			"kind", string(req.Kind)).Observe(time.Since(t0).Seconds())
	}

	// A checkpoint that committed but lost nodes mid-commit converges by
	// recovering the casualties inline: the epoch already advanced, so the
	// tenant's request is satisfiable — the cluster just owes itself
	// redundancy first.
	var casualty CasualtyError
	if err != nil && errors.As(err, &casualty) {
		nodes := append([]int(nil), casualty.CasualtyNodes()...)
		span.Event("partial-commit", "nodes", fmt.Sprintf("%v", nodes))
		repoch, rerr := r.exec.ExecuteRestore(ctx, nodes)
		if rerr == nil {
			r.terminal(req.ID, PhaseSucceeded, repoch, nodes,
				fmt.Sprintf("committed epoch %d; recovered mid-commit casualties %v", epochOr(repoch, epoch), nodes))
			span.SetAttr("outcome", "succeeded-after-recovery")
			span.Finish()
			r.count("succeeded", req)
			return true
		}
		r.terminal(req.ID, PhaseFailed, epoch, nodes,
			fmt.Sprintf("committed epoch %d but recovery of casualties %v failed: %v", epoch, nodes, rerr))
		span.SetAttr("outcome", "failed")
		span.FinishErr(rerr)
		r.count("failed", req)
		return true
	}

	if err == nil {
		r.terminal(req.ID, PhaseSucceeded, epoch, nil, "")
		span.SetAttr("outcome", "succeeded")
		span.Finish()
		r.count("succeeded", req)
		return true
	}

	// Plain failure: the round did not commit (or the restore did not
	// converge). Retry with exponential backoff while budget remains.
	if attempt < r.maxRetries {
		delay := r.backoff << (attempt - 1)
		r.nextAttempt[req.ID] = time.Now().Add(delay)
		r.transition(req.ID, PhaseScheduled, func(now time.Time, req *Request) {
			req.Status.Retries = attempt
			req.Status.Message = fmt.Sprintf("attempt %d failed: %v (retrying in %v)", attempt, err, delay)
			req.Status.setCondition(now, CondRetrying, true, "Backoff", req.Status.Message)
		})
		span.SetAttr("outcome", "retry")
		span.FinishErr(err)
		r.count("retried", req)
		return true
	}
	r.terminal(req.ID, PhaseFailed, 0, nil,
		fmt.Sprintf("gave up after %d attempts: %v", attempt, err))
	span.SetAttr("outcome", "failed")
	span.FinishErr(err)
	r.count("failed", req)
	return true
}

// epochOr returns a if nonzero, else b.
func epochOr(a, b uint64) uint64 {
	if a != 0 {
		return a
	}
	return b
}

// transition moves a request to a phase, counting the transition. A non-nil
// error means the store refused the write (a poisoned journal): the caller
// must treat the pass as not-progressed so the loop parks instead of spinning
// on a store it can no longer move.
func (r *Reconciler) transition(id string, phase Phase, mutate func(now time.Time, req *Request)) error {
	_, err := r.store.UpdateStatus(id, func(now time.Time, req *Request) {
		req.Status.Phase = phase
		if mutate != nil {
			mutate(now, req)
		}
	})
	if err != nil {
		return err
	}
	if r.reg != nil {
		r.reg.Counter("dvdc_service_transitions_total", "phase", string(phase)).Inc()
	}
	return nil
}

// terminal lands a request in Succeeded or Failed.
func (r *Reconciler) terminal(id string, phase Phase, epoch uint64, casualties []int, message string) {
	delete(r.nextAttempt, id)
	r.transition(id, phase, func(now time.Time, req *Request) {
		req.Status.ObservedGeneration = req.Generation
		if epoch != 0 {
			req.Status.Epoch = epoch
		}
		if len(casualties) > 0 {
			req.Status.Casualties = append([]int(nil), casualties...)
			req.Status.setCondition(now, CondRecovered, phase == PhaseSucceeded,
				"Casualties", fmt.Sprintf("nodes %v lost mid-round", casualties))
		}
		if message != "" {
			req.Status.Message = message
		}
		req.Status.setCondition(now, CondComplete, phase == PhaseSucceeded, string(phase), message)
	})
}

// count tallies one finished attempt by result, kind, and tenant.
func (r *Reconciler) count(result string, req *Request) {
	if r.reg == nil {
		return
	}
	r.reg.Counter("dvdc_service_reconciles_total", "result", result, "kind", string(req.Kind)).Inc()
	if result == "retried" {
		r.reg.Counter("dvdc_service_retries_total", "tenant", req.Spec.Tenant).Inc()
	}
}

// exportPhases refreshes the per-phase population gauges.
func (r *Reconciler) exportPhases() {
	if r.reg == nil {
		return
	}
	counts := r.store.PhaseCounts()
	for _, p := range []Phase{PhasePending, PhaseScheduled, PhaseInProgress, PhaseSucceeded, PhaseFailed} {
		r.reg.Gauge("dvdc_service_requests", "phase", string(p)).Set(int64(counts[p]))
	}
}
