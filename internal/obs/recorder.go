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
	"time"
)

// FlightRecorder is a per-process black box that dumps a postmortem bundle
// — the process tracer's ring of spans as JSONL, a metrics snapshot, and run
// metadata — when something goes wrong (PartialCommitError, a soak invariant
// violation, SIGQUIT). It keeps no record of its own: spans and the registry
// are the one telemetry record, and the tracer's ring is the pre-failure
// window ReHype's recoverable pre-failure state argues for. All methods
// tolerate a nil receiver.
type FlightRecorder struct {
	mu   sync.Mutex
	dir  string // auto-dump directory ("" = AutoDump disabled)
	reg  *Registry
	tr   *Tracer
	meta map[string]interface{}
}

// NewFlightRecorder builds a recorder with no dump directory, registry or
// tracer attached.
func NewFlightRecorder() *FlightRecorder {
	return &FlightRecorder{meta: map[string]interface{}{}}
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

// BundleMeta is a postmortem bundle's meta.json.
type BundleMeta struct {
	Reason    string                 `json:"reason"`
	Time      time.Time              `json:"time"`
	Dropped   int64                  `json:"dropped"` // spans the tracer's ring evicted before the dump
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
//	    spans.jsonl      the tracer's ring, oldest first, in the JSONL sink's
//	                     encoding (when a tracer is set; render with
//	                     `dvdcctl trace -in`)
//	    metrics.prom     Prometheus exposition snapshot (when a registry is set)
//	    goroutine.pprof  full goroutine stacks (text, debug=2) — stuck
//	                     reconcilers show as parked goroutines
//	    heap.pprof       heap profile (binary, `go tool pprof`-able)
//	    meta.json        reason, timestamp, spans evicted, run metadata
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
		Reason: reason, Time: time.Now(), Dropped: tr.Dropped(),
		HostedPID: os.Getpid(), Meta: meta,
	}
	mb, err := json.MarshalIndent(bm, "", "  ")
	if err != nil {
		return "", err
	}
	if err := os.WriteFile(filepath.Join(bundle, "meta.json"), append(mb, '\n'), 0o644); err != nil {
		return "", err
	}
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
	// An untraced process dumps no spans.jsonl: that bundle has zero spans.
	if sf, err := os.Open(filepath.Join(dir, "spans.jsonl")); err == nil {
		b.Spans, err = readSpans(sf, "spans.jsonl")
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
