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
	"time"
)

// BundleMeta is a postmortem bundle's meta.json.
type BundleMeta struct {
	Reason    string                 `json:"reason"`
	Time      time.Time              `json:"time"`
	Dropped   int64                  `json:"dropped"` // spans the tracer's ring evicted before the dump
	HostedPID int                    `json:"pid"`
	Meta      map[string]interface{} `json:"meta,omitempty"`
}

// Dump writes a postmortem bundle of a process's black box under dir when
// something goes wrong (PartialCommitError, a soak invariant violation,
// SIGQUIT) and returns the bundle path. The box is what the process already
// records: tr's ring of spans, the pre-failure window ReHype's recoverable
// pre-failure state argues for, and reg's series; meta (run metadata such as
// seed and node count, JSON-encodable) names the run. tr and reg may be nil,
// and an empty dir writes nothing. Errors are safe to ignore on failure
// paths: a postmortem must never turn into a second failure.
//
//	<dir>/postmortem-<reason>-<nanotime>/
//	    spans.jsonl      the tracer's ring, oldest first, in the JSONL sink's
//	                     encoding (when traced; render with `dvdcctl trace -in`)
//	    metrics.prom     Prometheus exposition snapshot (when reg is set)
//	    goroutine.pprof  full goroutine stacks (text, debug=2) — stuck
//	                     reconcilers show as parked goroutines
//	    heap.pprof       heap profile (binary, `go tool pprof`-able)
//	    meta.json        reason, timestamp, spans evicted, meta
func Dump(dir, reason string, tr *Tracer, reg *Registry, meta map[string]interface{}) (string, error) {
	if dir == "" {
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
