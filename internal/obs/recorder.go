package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// FlightEntry is one event in the flight recorder's bounded log: an untraced
// RPC outcome, a chaos fault, an alert transition, or a free-form note —
// what no span carries. Entries are small and uniform so the ring holds a
// long pre-failure window cheaply.
type FlightEntry struct {
	Time  time.Time         `json:"time"`
	Kind  string            `json:"kind"`            // "rpc" | "chaos" | "note" | "alert"
	Name  string            `json:"name"`            // RPC message type, fault kind, note or rule name
	Peer  string            `json:"peer,omitempty"`  // RPC peer / fault pair
	Trace uint64            `json:"trace,omitempty"` // owning trace id, when known
	DurNS int64             `json:"dur_ns,omitempty"`
	Err   string            `json:"err,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
}

// String renders one human-readable line (used by `dvdcctl postmortem`).
func (e FlightEntry) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s  %-5s %s", e.Time.Format("15:04:05.000000"), e.Kind, e.Name)
	if e.Peer != "" {
		fmt.Fprintf(&b, " peer=%s", e.Peer)
	}
	if e.DurNS > 0 {
		fmt.Fprintf(&b, " %v", time.Duration(e.DurNS).Round(time.Microsecond))
	}
	if e.Trace != 0 {
		fmt.Fprintf(&b, " trace=%016x", e.Trace)
	}
	if len(e.Attrs) > 0 {
		keys := make([]string, 0, len(e.Attrs))
		for k := range e.Attrs {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%s", k, e.Attrs[k])
		}
	}
	if e.Err != "" {
		fmt.Fprintf(&b, " ERR=%s", e.Err)
	}
	return b.String()
}

// FlightRecorder is a per-process black box: a bounded ring of what no span
// carries (untraced RPC outcomes, chaos events, alerts, notes) that can dump
// a postmortem bundle — the ring and the process tracer's spans as JSONL, a
// metrics snapshot, and run metadata — when something goes wrong
// (PartialCommitError, a soak invariant violation, SIGQUIT). Inspired by
// ReHype's recoverable pre-failure state: the recorder keeps running at full
// fidelity so the 2 s before a failure are always on disk-able record. All
// methods tolerate a nil receiver.
type FlightRecorder struct {
	ring  *Ring[FlightEntry]
	dumps atomic.Int64

	mu   sync.Mutex
	dir  string // auto-dump directory ("" = AutoDump disabled)
	reg  *Registry
	tr   *Tracer
	meta map[string]interface{}
}

// flightRingSize is how many entries a flight recorder keeps.
const flightRingSize = 4096

// NewFlightRecorder builds a recorder holding the last 4096 entries.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{ring: NewRing[FlightEntry](flightRingSize), meta: map[string]interface{}{}}
}

// SetDumpDir sets where AutoDump writes bundles ("" disables AutoDump;
// explicit Dump calls still work with an explicit directory).
func (r *FlightRecorder) SetDumpDir(dir string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.dir = dir
	r.mu.Unlock()
}

// SetRegistry attaches the metrics registry whose exposition is snapshotted
// into every bundle.
func (r *FlightRecorder) SetRegistry(reg *Registry) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.reg = reg
	r.mu.Unlock()
}

// SetTracer attaches the process's tracer, whose ring of finished spans
// every bundle carries as spans.jsonl. Pass the tracer the process's pools
// and coordinator use: their traced RPC outcomes live only in its spans.
func (r *FlightRecorder) SetTracer(tr *Tracer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.tr = tr
	r.mu.Unlock()
}

// SetMeta attaches one key of run metadata (layout, seed, geometry) to every
// subsequent bundle's meta.json. Values must be JSON-encodable.
func (r *FlightRecorder) SetMeta(key string, v interface{}) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.meta[key] = v
	r.mu.Unlock()
}

// Record appends one entry, stamping Time if unset.
func (r *FlightRecorder) Record(e FlightEntry) {
	if r == nil {
		return
	}
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	r.ring.Push(e)
}

// Note records a free-form annotation ("round 7 start", "node 2 killed").
func (r *FlightRecorder) Note(name string, kv ...string) {
	if r == nil {
		return
	}
	r.Record(FlightEntry{Kind: "note", Name: name, Attrs: kvMap(kv)})
}

// RPC records one per-peer RPC outcome (the transport pool's feed for calls
// that open no span).
func (r *FlightRecorder) RPC(peer, msg string, d time.Duration, trace uint64, err error) {
	if r == nil {
		return
	}
	e := FlightEntry{Kind: "rpc", Name: msg, Peer: peer, DurNS: d.Nanoseconds(), Trace: trace}
	if err != nil {
		e.Err = err.Error()
	}
	r.Record(e)
}

// Alert records one SLO alert transition (the health evaluator's feed), so a
// postmortem bundle carries the "why was this dumped" trail alongside the raw
// telemetry.
func (r *FlightRecorder) Alert(rule, state string, kv ...string) {
	if r == nil {
		return
	}
	attrs := kvMap(append([]string{"state", state}, kv...))
	r.Record(FlightEntry{Kind: "alert", Name: rule, Attrs: attrs})
}

// Chaos records one injected fault (the chaos injector's feed).
func (r *FlightRecorder) Chaos(kind, pair, note string) {
	if r == nil {
		return
	}
	r.Record(FlightEntry{Kind: "chaos", Name: kind, Peer: pair, Attrs: kvMap([]string{"note", note})})
}

// Entries snapshots the ring, oldest first.
func (r *FlightRecorder) Entries() []FlightEntry {
	if r == nil {
		return nil
	}
	return r.ring.Snapshot()
}

// Dropped returns how many entries the ring evicted oldest-first.
func (r *FlightRecorder) Dropped() int64 {
	if r == nil {
		return 0
	}
	return r.ring.Dropped()
}

// Dumps returns how many bundles this recorder has written.
func (r *FlightRecorder) Dumps() int64 {
	if r == nil {
		return 0
	}
	return r.dumps.Load()
}

// BundleMeta is a postmortem bundle's meta.json.
type BundleMeta struct {
	Reason    string                 `json:"reason"`
	Time      time.Time              `json:"time"`
	Entries   int                    `json:"entries"`
	Dropped   int64                  `json:"dropped"`
	HostedPID int                    `json:"pid"`
	Meta      map[string]interface{} `json:"meta,omitempty"`
}

// AutoDump writes a bundle into the configured dump directory; a no-op when
// none is set. Errors are returned but safe to ignore on failure paths — the
// recorder must never turn a postmortem into a second failure.
func (r *FlightRecorder) AutoDump(reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	r.mu.Lock()
	dir := r.dir
	r.mu.Unlock()
	if dir == "" {
		return "", nil
	}
	return r.Dump(dir, reason)
}

// Dump writes a postmortem bundle under dir and returns the bundle path:
//
//	<dir>/postmortem-<reason>-<nanotime>/
//	    flight.jsonl     the ring's entries, oldest first, one JSON per line
//	    spans.jsonl      the tracer's ring, oldest first, in the JSONL sink's
//	                     encoding (when a tracer is set; render with
//	                     `dvdcctl trace -in`)
//	    metrics.prom     Prometheus exposition snapshot (when a registry is set)
//	    goroutine.pprof  full goroutine stacks (text, debug=2) — stuck
//	                     reconcilers show as parked goroutines
//	    heap.pprof       heap profile (binary, `go tool pprof`-able)
//	    meta.json        reason, timestamp, entry/drop counts, run metadata
func (r *FlightRecorder) Dump(dir, reason string) (string, error) {
	if r == nil {
		return "", nil
	}
	slug := strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' {
			return c
		}
		return '-'
	}, reason)
	bundle := filepath.Join(dir, fmt.Sprintf("postmortem-%s-%d", slug, time.Now().UnixNano()))
	if err := os.MkdirAll(bundle, 0o755); err != nil {
		return "", fmt.Errorf("obs: bundle dir: %w", err)
	}
	entries := r.Entries()
	if err := writeFile(filepath.Join(bundle, "flight.jsonl"), func(w io.Writer) error {
		return writeJSONL(w, entries)
	}); err != nil {
		return "", err
	}

	r.mu.Lock()
	reg, tr := r.reg, r.tr
	meta := make(map[string]interface{}, len(r.meta))
	for k, v := range r.meta {
		meta[k] = v
	}
	r.mu.Unlock()
	if tr != nil {
		if err := writeFile(filepath.Join(bundle, "spans.jsonl"), func(w io.Writer) error {
			return writeJSONL(w, tr.Spans())
		}); err != nil {
			return "", err
		}
	}
	if reg != nil {
		if err := writeFile(filepath.Join(bundle, "metrics.prom"), reg.WritePrometheus); err != nil {
			return "", err
		}
	}

	// Profiles are best-effort: a postmortem must never fail because the
	// runtime could not serialize a profile.
	for _, p := range []struct {
		file, profile string
		debug         int
	}{
		{"goroutine.pprof", "goroutine", 2},
		{"heap.pprof", "heap", 0},
	} {
		prof := pprof.Lookup(p.profile)
		if prof == nil {
			continue
		}
		pf, err := os.Create(filepath.Join(bundle, p.file))
		if err != nil {
			continue
		}
		prof.WriteTo(pf, p.debug) //nolint:errcheck
		pf.Close()
	}

	bm := BundleMeta{
		Reason: reason, Time: time.Now(), Entries: len(entries),
		Dropped: r.Dropped(), HostedPID: os.Getpid(), Meta: meta,
	}
	mb, err := json.MarshalIndent(bm, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(bundle, "meta.json"), append(mb, '\n'), 0o644); err != nil {
		return "", err
	}
	r.dumps.Add(1)
	return bundle, nil
}

// writeFile creates path and fills it through a buffered writer.
func writeFile(path string, fill func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = fill(w)
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// Bundle is a postmortem bundle read back from disk.
type Bundle struct {
	Path    string
	Meta    BundleMeta
	Entries []FlightEntry
	Spans   []Span // the dumping process's tracer ring (none when untraced)
	Metrics string // raw Prometheus exposition ("" when absent)
}

// ReadBundle loads a bundle directory written by Dump.
func ReadBundle(dir string) (*Bundle, error) {
	b := &Bundle{Path: dir}
	mb, err := os.ReadFile(filepath.Join(dir, "meta.json"))
	if err != nil {
		return nil, fmt.Errorf("obs: read bundle: %w", err)
	}
	if err := json.Unmarshal(mb, &b.Meta); err != nil {
		return nil, fmt.Errorf("obs: bundle meta.json: %w", err)
	}
	f, err := os.Open(filepath.Join(dir, "flight.jsonl"))
	if err != nil {
		return nil, err
	}
	b.Entries, err = readJSONL[FlightEntry](f, "flight.jsonl")
	f.Close()
	if err != nil {
		return nil, err
	}
	// An untraced process dumps no spans.jsonl: that bundle has zero spans.
	if sf, err := os.Open(filepath.Join(dir, "spans.jsonl")); err == nil {
		b.Spans, err = readJSONL[Span](sf, "spans.jsonl")
		sf.Close()
		if err != nil {
			return nil, err
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	if pm, err := os.ReadFile(filepath.Join(dir, "metrics.prom")); err == nil {
		b.Metrics = string(pm)
	}
	return b, nil
}

// FindBundles lists bundle directories under dir, oldest first.
func FindBundles(dir string) ([]string, error) {
	des, err := os.ReadDir(dir)
	if err != nil {
		// Dump dirs are created lazily on the first dump; a missing dir just
		// means nothing has failed yet.
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, err
	}
	var out []string
	for _, de := range des {
		if de.IsDir() && strings.HasPrefix(de.Name(), "postmortem-") {
			out = append(out, filepath.Join(dir, de.Name()))
		}
	}
	sort.Strings(out)
	return out, nil
}
