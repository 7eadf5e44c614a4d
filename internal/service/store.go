package service

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/service/journal"
)

// ErrDurability wraps every failure of the durable backing: a journal append
// or compaction that did not land, or a write against a closed store. The
// HTTP layer maps it to a 500 (the request was not persisted), and the store
// fail-stops: once a write is lost, accepting more would let the in-memory
// state drift arbitrarily far from what a restart will replay.
var ErrDurability = errors.New("service: durable store failure")

// DefaultCompactBytes is the journal size past which an append triggers a
// snapshot+truncate compaction.
const DefaultCompactBytes = 1 << 20

// Store is the versioned request-object store. Every write bumps a
// monotonically increasing revision; watchers block on Changed until the
// revision moves past the one they last saw, then re-read — a level-triggered
// watch with no per-watcher queue to overflow. All returned objects are deep
// copies: callers can never mutate stored state except through Update.
//
// A store opened with OpenStore additionally writes every mutation through an
// append-only journal before returning, so a restarted controller replays to
// exactly the revision, objects, and admission counts the old one last
// acknowledged.
type Store struct {
	mu     sync.Mutex
	rev    int64
	nextID int64
	byID   map[string]*Request
	order  []string // submission order
	change chan struct{}

	// Durable backing; all nil/zero for the memory-only store.
	jw           *journal.Writer
	jerr         error // sticky: first journal failure poisons all later writes
	compactBytes int64
	reg          *obs.Registry
}

// NewStore builds an empty in-memory store.
func NewStore() *Store {
	return &Store{
		byID:   map[string]*Request{},
		change: make(chan struct{}),
	}
}

// DurableOptions tune OpenStore.
type DurableOptions struct {
	// CompactBytes is the journal size that triggers compaction; 0 picks
	// DefaultCompactBytes, negative disables automatic compaction.
	CompactBytes int64
	// Registry receives the dvdc_service_journal_* metrics (nil = unmetered).
	Registry *obs.Registry
}

// ReplayInfo summarizes what OpenStore recovered.
type ReplayInfo struct {
	Records      int           // intact journal records replayed
	Requests     int           // request objects in the recovered store
	DroppedBytes int64         // torn tail truncated from the journal
	Duration     time.Duration // wall time of the scan + replay
}

// OpenStore opens (creating if needed) the journal-backed store rooted at
// dir, replaying the log into memory. A torn tail — a crash mid-append — is
// truncated silently; a record that passes its CRC but fails semantic
// validation is a hard error, because loading it would be silent corruption.
func OpenStore(dir string, opts DurableOptions) (*Store, ReplayInfo, error) {
	var info ReplayInfo
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, info, fmt.Errorf("service: state dir: %w", err)
	}
	path := filepath.Join(dir, journalFileName)
	reg := opts.Registry
	t0 := time.Now()
	jw, payloads, rinfo, err := journal.Recover(path, journal.Options{
		OnFsync: func(d time.Duration) {
			reg.Counter("dvdc_service_journal_fsyncs_total").Inc()
			reg.Histogram("dvdc_service_journal_fsync_seconds", obs.LatencyBuckets()).Observe(d.Seconds())
		},
	})
	if err != nil {
		return nil, info, fmt.Errorf("service: open journal: %w", err)
	}
	img, err := replayRecords(payloads)
	if err != nil {
		jw.Close()
		return nil, info, fmt.Errorf("service: replay %s: %w", path, err)
	}
	s := &Store{
		rev:    img.rev,
		nextID: img.nextID,
		byID:   img.byID,
		order:  img.order,
		change: make(chan struct{}),
		jw:     jw,
		reg:    reg,
	}
	s.compactBytes = opts.CompactBytes
	if s.compactBytes == 0 {
		s.compactBytes = DefaultCompactBytes
	}
	info = ReplayInfo{
		Records:      len(payloads),
		Requests:     len(img.order),
		DroppedBytes: rinfo.DroppedBytes,
		Duration:     time.Since(t0),
	}
	reg.Histogram("dvdc_service_journal_replay_seconds", obs.LatencyBuckets()).
		Observe(info.Duration.Seconds())
	reg.GaugeFunc("dvdc_service_journal_bytes", func() float64 { return float64(jw.Size()) })
	return s, info, nil
}

// bump advances the revision and wakes every watcher. Caller holds s.mu.
func (s *Store) bump() int64 {
	s.rev++
	close(s.change)
	s.change = make(chan struct{})
	return s.rev
}

// Rev returns the store's current revision.
func (s *Store) Rev() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.rev
}

// Changed returns a channel closed at the next write. Use with Rev:
// re-check state after the channel fires, not instead of checking.
func (s *Store) Changed() <-chan struct{} {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.change
}

// Wait blocks until the store revision exceeds rev or the deadline passes,
// and returns the current revision either way.
func (s *Store) Wait(rev int64, deadline time.Time) int64 {
	for {
		s.mu.Lock()
		cur, ch := s.rev, s.change
		s.mu.Unlock()
		if cur > rev {
			return cur
		}
		remain := time.Until(deadline)
		if remain <= 0 {
			return cur
		}
		t := time.NewTimer(remain)
		select {
		case <-ch:
		case <-t.C:
		}
		t.Stop()
	}
}

// idPrefix maps a kind to its id namespace.
func idPrefix(kind Kind) string {
	if kind == KindRestore {
		return "rr"
	}
	return "cr"
}

// Create inserts a new request in phase Pending at generation 1 and returns
// a copy. The spec must already have passed validation and admission. On a
// journal-backed store the create is durable before Create returns; a journal
// failure poisons the store (ErrDurability) rather than diverging from disk.
func (s *Store) Create(kind Kind, spec Spec) (*Request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jerr != nil {
		return nil, s.jerr
	}
	s.nextID++
	now := time.Now()
	req := &Request{
		APIVersion: APIVersion,
		Kind:       kind,
		ID:         fmt.Sprintf("%s-%d", idPrefix(kind), s.nextID),
		Generation: 1,
		Created:    now,
		Spec:       spec,
		Status:     Status{Phase: PhasePending},
	}
	req.Status.setCondition(now, CondAdmitted, true, "Admitted", "passed admission control")
	s.byID[req.ID] = req
	s.order = append(s.order, req.ID)
	s.bump()
	if err := s.appendLocked(journalRecord{Op: opCreate, Rev: s.rev, NextID: s.nextID, Req: req}); err != nil {
		return nil, err
	}
	return req.clone(), nil
}

// Get returns a copy of the request, or false.
func (s *Store) Get(id string) (*Request, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	req, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	return req.clone(), true
}

// List returns copies of every request in submission order; a non-empty
// tenant filters to that tenant's requests.
func (s *Store) List(tenant string) []*Request {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Request, 0, len(s.order))
	for _, id := range s.order {
		if req := s.byID[id]; tenant == "" || req.Spec.Tenant == tenant {
			out = append(out, req.clone())
		}
	}
	return out
}

// UpdateStatus applies mutate to the request's status under the store lock,
// stamps ObservedGeneration handling to the caller, bumps the revision, and
// returns a copy. Unknown ids return an error.
func (s *Store) UpdateStatus(id string, mutate func(now time.Time, req *Request)) (*Request, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jerr != nil {
		return nil, s.jerr
	}
	req, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("service: no request %q", id)
	}
	mutate(time.Now(), req)
	s.bump()
	if err := s.appendLocked(journalRecord{Op: opStatus, Rev: s.rev, Req: req}); err != nil {
		return nil, err
	}
	return req.clone(), nil
}

// appendLocked writes one record through the journal (no-op for the memory
// store) and compacts past the size threshold. Caller holds s.mu — which is
// what makes compaction atomic with respect to writers: the snapshot, the
// rewrite, and every append happen under the same lock, so a compacted log
// can never miss a record that raced it.
func (s *Store) appendLocked(rec journalRecord) error {
	if s.jw == nil {
		return nil
	}
	b, err := encodeRecord(rec)
	if err == nil {
		err = s.jw.Append(b)
	}
	if err != nil {
		s.jerr = fmt.Errorf("%w: append: %v", ErrDurability, err)
		return s.jerr
	}
	s.reg.Counter("dvdc_service_journal_appends_total").Inc()
	if s.compactBytes > 0 && s.jw.Size() > s.compactBytes {
		return s.compactLocked()
	}
	return nil
}

// compactLocked rewrites the journal as one snapshot record. Caller holds s.mu.
func (s *Store) compactLocked() error {
	if s.jw == nil {
		return nil
	}
	snap := &journalSnapshot{Rev: s.rev, NextID: s.nextID}
	for _, id := range s.order {
		snap.Requests = append(snap.Requests, s.byID[id])
	}
	b, err := encodeRecord(journalRecord{Op: opSnapshot, Rev: s.rev, Snapshot: snap})
	if err == nil {
		err = s.jw.Rewrite(b)
	}
	if err != nil {
		s.jerr = fmt.Errorf("%w: compact: %v", ErrDurability, err)
		return s.jerr
	}
	s.reg.Counter("dvdc_service_journal_compactions_total").Inc()
	return nil
}

// Compact forces a snapshot+truncate rewrite of the journal (no-op for the
// memory store).
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jerr != nil {
		return s.jerr
	}
	return s.compactLocked()
}

// Close flushes and closes the journal; reads keep working, further writes
// fail with ErrDurability. A memory-only store is unaffected. Idempotent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.jw == nil {
		return nil
	}
	err := s.jw.Close()
	s.jw = nil
	if s.jerr == nil {
		s.jerr = fmt.Errorf("%w: store closed", ErrDurability)
	}
	return err
}

// ActiveByTenant counts non-terminal requests per tenant (admission input).
func (s *Store) ActiveByTenant() map[string]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[string]int{}
	for _, req := range s.byID {
		if !req.Terminal() {
			out[req.Spec.Tenant]++
		}
	}
	return out
}

// PhaseCounts tallies requests by phase (exported as the
// dvdc_service_requests gauge family).
func (s *Store) PhaseCounts() map[Phase]int {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := map[Phase]int{}
	for _, req := range s.byID {
		out[req.Status.Phase]++
	}
	return out
}

// Tenants lists every tenant that ever submitted, sorted.
func (s *Store) Tenants() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := map[string]bool{}
	for _, req := range s.byID {
		seen[req.Spec.Tenant] = true
	}
	out := make([]string, 0, len(seen))
	for t := range seen {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// clone deep-copies a request.
func (r *Request) clone() *Request {
	out := *r
	out.Spec.Nodes = append([]int(nil), r.Spec.Nodes...)
	out.Status.Casualties = append([]int(nil), r.Status.Casualties...)
	out.Status.Conditions = append([]Condition(nil), r.Status.Conditions...)
	out.Status.TraceIDs = append([]string(nil), r.Status.TraceIDs...)
	return &out
}
