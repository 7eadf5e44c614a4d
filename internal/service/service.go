package service

import (
	"fmt"
	"time"

	"dvdc/internal/obs"
)

// Options configures a Service.
type Options struct {
	// Quotas maps tenant -> quota; unnamed tenants get DefaultMaxActive (or
	// DefaultQuota when > 0).
	Quotas       map[string]Quota
	DefaultQuota int
	// Reconciler tuning.
	MaxRetries int
	Backoff    time.Duration
	// Observability (either may be nil).
	Tracer   *obs.Tracer
	Registry *obs.Registry
	// StateDir, when non-empty, backs the store with a durable journal there
	// (Open only): requests survive controller restarts and the reconciler
	// resumes whatever was in flight.
	StateDir string
	// CompactBytes tunes the journal's compaction (see DurableOptions).
	CompactBytes int64
}

// Service bundles the control plane: the object store, the admission gate,
// and the reconciler, plus the submit/watch entry points every caller (CLI,
// soak harness, HTTP API) shares.
type Service struct {
	Store      *Store
	Admission  *Admission
	Reconciler *Reconciler
	// Replay describes what Open recovered from the state dir (zero for a
	// memory-backed service).
	Replay ReplayInfo
	reg    *obs.Registry
}

// Open assembles a service over an executor, replaying opts.StateDir into the
// store when set (an empty StateDir yields an in-memory service).
// Call Start to begin reconciling — which is also what resumes any request
// the previous controller left Pending, Scheduled, or InProgress.
func Open(exec Executor, opts Options) (*Service, error) {
	st := NewStore()
	var replay ReplayInfo
	if opts.StateDir != "" {
		var err error
		st, replay, err = OpenStore(opts.StateDir, DurableOptions{
			CompactBytes: opts.CompactBytes,
			Registry:     opts.Registry,
		})
		if err != nil {
			return nil, err
		}
	}
	adm := NewAdmission(opts.Quotas, opts.DefaultQuota)
	rec := NewReconciler(st, exec, ReconcilerOptions{
		MaxRetries: opts.MaxRetries,
		Backoff:    opts.Backoff,
		Tracer:     opts.Tracer,
		Registry:   opts.Registry,
	})
	return &Service{Store: st, Admission: adm, Reconciler: rec, Replay: replay, reg: opts.Registry}, nil
}

// Start launches the reconciler loop.
func (s *Service) Start() {
	go s.Reconciler.Run()
}

// Stop halts the reconciler (after any in-flight attempt), quiesces the
// executor, and closes the store's journal so another controller can open the
// state dir. Idempotent.
func (s *Service) Stop() {
	s.Reconciler.Stop()
	s.Store.Close() //nolint:errcheck // every append is already synced; nothing actionable here
}

// Submit admits and stores one request. The returned copy carries the
// assigned id; a *QuotaError means the tenant is at its cap.
func (s *Service) Submit(kind Kind, spec Spec) (*Request, error) {
	if err := s.Admission.Admit(s.Store, kind, spec); err != nil {
		if s.reg != nil {
			reason := "invalid"
			if _, ok := err.(*QuotaError); ok {
				reason = "quota"
			}
			s.reg.Counter("dvdc_service_admission_rejected_total",
				"tenant", spec.Tenant, "reason", reason).Inc()
		}
		return nil, err
	}
	req, err := s.Store.Create(kind, spec)
	if err != nil {
		return nil, err
	}
	if s.reg != nil {
		s.reg.Counter("dvdc_service_requests_total",
			"tenant", spec.Tenant, "kind", string(kind)).Inc()
	}
	return req, nil
}

// WaitTerminal blocks until the request reaches a terminal phase or the
// timeout passes, returning the final copy. A timeout returns the last
// observed copy and an error naming its stuck phase.
func (s *Service) WaitTerminal(id string, timeout time.Duration) (*Request, error) {
	deadline := time.Now().Add(timeout)
	rev := int64(-1)
	for {
		req, ok := s.Store.Get(id)
		if !ok {
			return nil, fmt.Errorf("service: no request %q", id)
		}
		if req.Terminal() {
			return req, nil
		}
		if !time.Now().Before(deadline) {
			return req, fmt.Errorf("service: request %s stuck in phase %s after %v", id, req.Status.Phase, timeout)
		}
		rev = s.Store.Wait(rev, deadline)
	}
}
