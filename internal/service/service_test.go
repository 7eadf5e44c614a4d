package service

import (
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"dvdc/internal/obs"
)

// fakeCasualty satisfies CasualtyError the way the runtime's
// PartialCommitError does.
type fakeCasualty struct{ nodes []int }

func (f *fakeCasualty) Error() string        { return fmt.Sprintf("partial commit: nodes %v", f.nodes) }
func (f *fakeCasualty) CasualtyNodes() []int { return f.nodes }

// fakeExec is a scriptable executor: failures fails that many checkpoint
// attempts before succeeding, casualtyOn makes that attempt (1-based) return
// a CasualtyError, restoreErr fails every restore.
type fakeExec struct {
	mu          sync.Mutex
	epoch       uint64
	failures    int
	casualtyOn  int
	casualties  []int
	restoreErr  error
	checkpoints int
	restores    [][]int
	order       []string // tenant per executed attempt, in execution order
	quiesced    int
}

func (f *fakeExec) ExecuteCheckpoint(_ obs.SpanContext, steps uint64) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.checkpoints++
	f.order = append(f.order, fmt.Sprintf("ckpt-%d", steps))
	if f.casualtyOn == f.checkpoints {
		f.epoch++
		return f.epoch, &fakeCasualty{nodes: append([]int(nil), f.casualties...)}
	}
	if f.checkpoints <= f.failures {
		return 0, errors.New("prepare fanout failed")
	}
	f.epoch++
	return f.epoch, nil
}

func (f *fakeExec) ExecuteRestore(_ obs.SpanContext, nodes []int) (uint64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.restores = append(f.restores, append([]int(nil), nodes...))
	f.order = append(f.order, fmt.Sprintf("restore-%v", nodes))
	if f.restoreErr != nil {
		return 0, f.restoreErr
	}
	return f.epoch, nil
}

func (f *fakeExec) Quiesce() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.quiesced++
	return nil
}

func (f *fakeExec) snapshot() fakeExec {
	f.mu.Lock()
	defer f.mu.Unlock()
	return fakeExec{
		epoch:       f.epoch,
		checkpoints: f.checkpoints,
		restores:    append([][]int(nil), f.restores...),
		order:       append([]string(nil), f.order...),
		quiesced:    f.quiesced,
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		kind Kind
		spec Spec
		ok   bool
	}{
		{KindCheckpoint, Spec{Tenant: "a", Steps: 10}, true},
		{KindCheckpoint, Spec{Tenant: "a"}, true},
		{KindCheckpoint, Spec{Steps: 10}, false},                           // no tenant
		{KindCheckpoint, Spec{Tenant: "a", Nodes: []int{1}}, false},        // nodes on checkpoint
		{KindRestore, Spec{Tenant: "a", Nodes: []int{0, 2}}, true},         // ok
		{KindRestore, Spec{Tenant: "a"}, false},                            // no nodes
		{KindRestore, Spec{Tenant: "a", Nodes: []int{1, 1}}, false},        // dup
		{KindRestore, Spec{Tenant: "a", Nodes: []int{-1}}, false},          // negative
		{KindRestore, Spec{Tenant: "a", Nodes: []int{1}, Steps: 3}, false}, // steps on restore
		{Kind("Bogus"), Spec{Tenant: "a"}, false},
	}
	for i, c := range cases {
		if err := c.kind.Validate(c.spec); (err == nil) != c.ok {
			t.Errorf("case %d: Validate(%s, %+v) = %v, want ok=%v", i, c.kind, c.spec, err, c.ok)
		}
	}
}

func TestStoreRevisionsAndWatch(t *testing.T) {
	st := NewStore()
	if st.Rev() != 0 {
		t.Fatalf("fresh store rev = %d, want 0", st.Rev())
	}
	req, err := st.Create(KindCheckpoint, Spec{Tenant: "a"})
	if err != nil {
		t.Fatal(err)
	}
	if req.ID != "cr-1" || req.Generation != 1 || req.Status.Phase != PhasePending {
		t.Fatalf("created request = %+v", req)
	}
	if st.Rev() != 1 {
		t.Fatalf("rev after create = %d, want 1", st.Rev())
	}
	rr, err := st.Create(KindRestore, Spec{Tenant: "a", Nodes: []int{2}})
	if err != nil {
		t.Fatal(err)
	}
	if rr.ID != "rr-2" {
		t.Fatalf("restore id = %s, want rr-2", rr.ID)
	}

	// A watcher parked at rev 2 wakes when a status write bumps to 3.
	done := make(chan int64, 1)
	go func() { done <- st.Wait(2, time.Now().Add(5*time.Second)) }()
	time.Sleep(10 * time.Millisecond)
	if _, err := st.UpdateStatus(req.ID, func(now time.Time, r *Request) {
		r.Status.Phase = PhaseScheduled
	}); err != nil {
		t.Fatal(err)
	}
	select {
	case rev := <-done:
		if rev != 3 {
			t.Fatalf("Wait returned rev %d, want 3", rev)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("watcher never woke")
	}

	// Copies are deep: mutating a returned object must not leak into the store.
	got, _ := st.Get(rr.ID)
	got.Spec.Nodes[0] = 99
	got.Status.Phase = PhaseFailed
	again, _ := st.Get(rr.ID)
	if again.Spec.Nodes[0] != 2 || again.Status.Phase == PhaseFailed {
		t.Fatalf("store leaked a mutable reference: %+v", again)
	}

	if n := len(st.List("a")); n != 2 {
		t.Fatalf("List(a) = %d items, want 2", n)
	}
	if n := len(st.List("b")); n != 0 {
		t.Fatalf("List(b) = %d items, want 0", n)
	}
}

func TestAdmissionQuota(t *testing.T) {
	st := NewStore()
	adm := NewAdmission(map[string]Quota{"small": {MaxActive: 2}}, 0)

	spec := Spec{Tenant: "small"}
	for i := 0; i < 2; i++ {
		if err := adm.Admit(st, KindCheckpoint, spec); err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		st.Create(KindCheckpoint, spec)
	}
	err := adm.Admit(st, KindCheckpoint, spec)
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("over-quota admit = %v, want *QuotaError", err)
	}
	if qe.Tenant != "small" || qe.Limit != 2 || qe.Active != 2 {
		t.Fatalf("quota error = %+v", qe)
	}

	// Unnamed tenants get the default cap.
	if got := adm.QuotaFor("other").MaxActive; got != DefaultMaxActive {
		t.Fatalf("default quota = %d, want %d", got, DefaultMaxActive)
	}

	// A terminal request frees its quota slot.
	reqs := st.List("small")
	st.UpdateStatus(reqs[0].ID, func(now time.Time, r *Request) { r.Status.Phase = PhaseSucceeded })
	if err := adm.Admit(st, KindCheckpoint, spec); err != nil {
		t.Fatalf("admit after completion: %v", err)
	}
}

// openService builds an in-memory Service over exec without starting it.
func openService(t *testing.T, exec Executor, opts Options) *Service {
	t.Helper()
	svc, err := Open(exec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// startService builds a Service over exec with fast backoff and starts it.
func startService(t *testing.T, exec Executor, opts Options) *Service {
	t.Helper()
	if opts.Backoff == 0 {
		opts.Backoff = 2 * time.Millisecond
	}
	svc := openService(t, exec, opts)
	svc.Start()
	t.Cleanup(svc.Stop)
	return svc
}

func TestReconcilerConverges(t *testing.T) {
	exec := &fakeExec{}
	reg := obs.NewRegistry()
	svc := startService(t, exec, Options{Registry: reg})

	req, err := svc.Submit(KindCheckpoint, Spec{Tenant: "a", Steps: 7})
	if err != nil {
		t.Fatal(err)
	}
	final, err := svc.WaitTerminal(req.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseSucceeded {
		t.Fatalf("phase = %s, want Succeeded (%s)", final.Status.Phase, final.Status.Message)
	}
	if final.Status.Epoch != 1 {
		t.Fatalf("epoch = %d, want 1", final.Status.Epoch)
	}
	if final.Status.ObservedGeneration != final.Generation {
		t.Fatalf("observed generation %d != generation %d", final.Status.ObservedGeneration, final.Generation)
	}
	for _, cond := range []string{CondAdmitted, CondScheduled, CondExecuting, CondComplete} {
		found := false
		for _, c := range final.Status.Conditions {
			if c.Type == cond && c.Status {
				found = true
			}
		}
		if !found {
			t.Errorf("missing true condition %s in %+v", cond, final.Status.Conditions)
		}
	}
	if got := reg.Counter("dvdc_service_requests_total", "tenant", "a", "kind", "Checkpoint").Value(); got != 1 {
		t.Errorf("requests_total = %d, want 1", got)
	}
	if got := reg.Counter("dvdc_service_reconciles_total", "result", "succeeded", "kind", "Checkpoint").Value(); got != 1 {
		t.Errorf("reconciles_total{succeeded} = %d, want 1", got)
	}
}

func TestReconcilerRetriesThenSucceeds(t *testing.T) {
	exec := &fakeExec{failures: 2}
	reg := obs.NewRegistry()
	svc := startService(t, exec, Options{Registry: reg})

	req, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a"})
	final, err := svc.WaitTerminal(req.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseSucceeded || final.Status.Retries != 2 {
		t.Fatalf("phase = %s retries = %d, want Succeeded after 2 retries", final.Status.Phase, final.Status.Retries)
	}
	if got := reg.Counter("dvdc_service_retries_total", "tenant", "a").Value(); got != 2 {
		t.Errorf("retries_total = %d, want 2", got)
	}
}

func TestReconcilerExhaustsRetries(t *testing.T) {
	exec := &fakeExec{failures: 1 << 30}
	svc := startService(t, exec, Options{MaxRetries: 3})

	req, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a"})
	final, err := svc.WaitTerminal(req.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseFailed {
		t.Fatalf("phase = %s, want Failed", final.Status.Phase)
	}
	if exec.snapshot().checkpoints != 3 {
		t.Fatalf("attempts = %d, want 3", exec.snapshot().checkpoints)
	}
}

func TestReconcilerRecoversCasualtiesInline(t *testing.T) {
	exec := &fakeExec{casualtyOn: 1, casualties: []int{2, 3}}
	svc := startService(t, exec, Options{})

	req, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a"})
	final, err := svc.WaitTerminal(req.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseSucceeded {
		t.Fatalf("phase = %s (%s), want Succeeded", final.Status.Phase, final.Status.Message)
	}
	if len(final.Status.Casualties) != 2 || final.Status.Casualties[0] != 2 {
		t.Fatalf("casualties = %v, want [2 3]", final.Status.Casualties)
	}
	snap := exec.snapshot()
	if len(snap.restores) != 1 || len(snap.restores[0]) != 2 {
		t.Fatalf("restores = %v, want one over [2 3]", snap.restores)
	}
	found := false
	for _, c := range final.Status.Conditions {
		if c.Type == CondRecovered && c.Status {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing Recovered condition: %+v", final.Status.Conditions)
	}
}

func TestReconcilerFailsWhenRecoveryFails(t *testing.T) {
	exec := &fakeExec{casualtyOn: 1, casualties: []int{1}, restoreErr: errors.New("keeper gone")}
	svc := startService(t, exec, Options{})

	req, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a"})
	final, err := svc.WaitTerminal(req.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseFailed {
		t.Fatalf("phase = %s, want Failed", final.Status.Phase)
	}
	if len(final.Status.Casualties) != 1 || final.Status.Casualties[0] != 1 {
		t.Fatalf("casualties = %v, want [1]", final.Status.Casualties)
	}
}

func TestReconcilerPriorityOrder(t *testing.T) {
	// Submit before starting the loop so both are queued when it first picks.
	exec := &fakeExec{}
	svc := openService(t, exec, Options{Backoff: 2 * time.Millisecond})
	low, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a", Priority: 0, Steps: 1})
	high, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a", Priority: 5, Steps: 2})
	svc.Start()
	defer svc.Stop()

	if _, err := svc.WaitTerminal(low.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.WaitTerminal(high.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	order := exec.snapshot().order
	if len(order) != 2 || order[0] != "ckpt-2" || order[1] != "ckpt-1" {
		t.Fatalf("execution order = %v, want high priority (steps=2) first", order)
	}

	hi, _ := svc.Store.Get(high.ID)
	lo, _ := svc.Store.Get(low.ID)
	if hi.Status.Epoch != 1 || lo.Status.Epoch != 2 {
		t.Fatalf("epochs: high=%d low=%d, want 1 and 2", hi.Status.Epoch, lo.Status.Epoch)
	}
}

func TestStopQuiescesExecutor(t *testing.T) {
	exec := &fakeExec{}
	svc := openService(t, exec, Options{})
	svc.Start()
	svc.Stop()
	if exec.snapshot().quiesced != 1 {
		t.Fatalf("quiesced = %d, want 1", exec.snapshot().quiesced)
	}
	// Stop is idempotent.
	svc.Stop()
}

func TestHTTPAPIRoundTrip(t *testing.T) {
	exec := &fakeExec{}
	svc := startService(t, exec, Options{Quotas: map[string]Quota{"small": {MaxActive: 1}}})

	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := NewClient(srv.URL)

	// Submit + watch to terminal over the wire.
	req, err := cl.Submit(KindCheckpoint, Spec{Tenant: "a", Steps: 3})
	if err != nil {
		t.Fatal(err)
	}
	var phases []Phase
	final, err := cl.Watch(req.ID, 5*time.Second, func(r *Request) {
		phases = append(phases, r.Status.Phase)
	})
	if err != nil {
		t.Fatal(err)
	}
	if final.Status.Phase != PhaseSucceeded || final.Status.Epoch != 1 {
		t.Fatalf("watched final = %+v", final.Status)
	}
	if len(phases) == 0 || phases[len(phases)-1] != PhaseSucceeded {
		t.Fatalf("observed phases = %v, want trailing Succeeded", phases)
	}

	// Get and List agree.
	got, err := cl.Get(req.ID)
	if err != nil || got.Status.Phase != PhaseSucceeded {
		t.Fatalf("Get = %+v, %v", got, err)
	}
	items, err := cl.List("a")
	if err != nil || len(items) != 1 {
		t.Fatalf("List = %d items, %v", len(items), err)
	}

	// Validation errors are 400s with a message, not QuotaErrors.
	if _, err := cl.Submit(KindCheckpoint, Spec{}); err == nil {
		t.Fatal("submit with no tenant succeeded")
	} else if qe := new(QuotaError); errors.As(err, &qe) {
		t.Fatalf("validation error surfaced as quota error: %v", err)
	}

	// Unknown ids are 404s.
	if _, err := cl.Get("cr-999"); err == nil {
		t.Fatal("Get of unknown id succeeded")
	}
}

func TestHTTPAPIQuotaRejection(t *testing.T) {
	// A blocking executor holds tenant "small"'s single slot so the second
	// submission deterministically trips the quota.
	release := make(chan struct{})
	exec := &gatedExec{gate: release}
	svc := startService(t, exec, Options{Quotas: map[string]Quota{"small": {MaxActive: 1}}})

	mux := http.NewServeMux()
	svc.Mount(mux)
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := NewClient(srv.URL)

	first, err := cl.Submit(KindCheckpoint, Spec{Tenant: "small"})
	if err != nil {
		t.Fatal(err)
	}
	_, err = cl.Submit(KindCheckpoint, Spec{Tenant: "small"})
	var qe *QuotaError
	if !errors.As(err, &qe) {
		t.Fatalf("second submit = %v, want *QuotaError over the wire", err)
	}
	if qe.Tenant != "small" || qe.Limit != 1 {
		t.Fatalf("wire quota error = %+v", qe)
	}

	// Quotas endpoint reflects the live usage.
	tenants, def, err := cl.Quotas()
	if err != nil {
		t.Fatal(err)
	}
	if def != DefaultMaxActive {
		t.Fatalf("default quota = %d, want %d", def, DefaultMaxActive)
	}
	if q := tenants["small"]; q.Limit != 1 || q.Active != 1 {
		t.Fatalf("small quota status = %+v, want limit 1 active 1", q)
	}

	close(release)
	if _, err := cl.Watch(first.ID, 5*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// Slot freed: the tenant can submit again.
	if _, err := cl.Submit(KindCheckpoint, Spec{Tenant: "small"}); err != nil {
		t.Fatalf("submit after completion: %v", err)
	}
}

// gatedExec blocks every checkpoint until its gate closes.
type gatedExec struct{ gate chan struct{} }

func (g *gatedExec) ExecuteCheckpoint(_ obs.SpanContext, _ uint64) (uint64, error) {
	<-g.gate
	return 1, nil
}

func (g *gatedExec) ExecuteRestore(_ obs.SpanContext, _ []int) (uint64, error) { return 1, nil }

func TestReconcileSpansEmitted(t *testing.T) {
	tr := obs.NewTracer(64)
	exec := &fakeExec{}
	svc := startService(t, exec, Options{Tracer: tr})

	req, _ := svc.Submit(KindCheckpoint, Spec{Tenant: "a"})
	if _, err := svc.WaitTerminal(req.ID, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	svc.Stop()
	found := false
	for _, sp := range tr.Spans() {
		if sp.Name == "reconcile" && sp.Attrs["request"] == req.ID && sp.Attrs["outcome"] == "succeeded" {
			found = true
		}
	}
	if !found {
		t.Fatal("no finished reconcile span for the request")
	}
}

// TestReconcilerSeesAWriteRacingItsIdlePass pins the loop's subscribe-then-
// check order: a request created while the reconciler is finishing a pass
// that found nothing must still wake it. A loop that fetches the change
// channel only after the pass misses that write and sleeps until the next
// one — the request sits in Pending. A fresh service per iteration puts the
// submit right on top of the reconciler's first (empty) pass.
func TestReconcilerSeesAWriteRacingItsIdlePass(t *testing.T) {
	for i := 0; i < 300; i++ {
		svc := openService(t, &fakeExec{}, Options{Registry: obs.NewRegistry()})
		svc.Start()
		// Sweep the submit across the reconciler's start-up: a busy wait of
		// 0 .. ~50 µs, finer than any sleep.
		for spin := time.Now(); time.Since(spin) < time.Duration(i%100)*500*time.Nanosecond; {
		}
		req, err := svc.Submit(KindCheckpoint, Spec{Tenant: "a"})
		if err != nil {
			t.Fatal(err)
		}
		_, err = svc.WaitTerminal(req.ID, 2*time.Second)
		svc.Stop()
		if err != nil {
			t.Fatalf("iteration %d: %v", i, err)
		}
	}
}
