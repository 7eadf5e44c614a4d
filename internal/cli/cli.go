// Package cli holds the flag spellings and observability bootstrap shared by
// the dvdc binaries. Every binary that exposes -obs-addr, -rpc-timeout,
// -postmortem-dir, -round-interval, -trace-jsonl, or -health registers it
// through Common, so the spelling, help text, and wiring exist exactly once
// and scripts written against one binary's flags work against them all.
package cli

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"time"

	"dvdc/internal/obs"
	"dvdc/internal/obs/health"
)

// Common holds the values of the shared flags. Each binary registers only
// the subset it supports (a daemon has no -round-interval; the simulator has
// no -rpc-timeout), then reads the fields after flag.Parse.
type Common struct {
	ObsAddr       string
	RPCTimeout    time.Duration
	PostmortemDir string
	RoundInterval time.Duration
	TraceJSONL    string
	Health        bool
}

// ObsAddrFlag registers -obs-addr.
func (c *Common) ObsAddrFlag(fs *flag.FlagSet) {
	fs.StringVar(&c.ObsAddr, "obs-addr", "",
		"serve /metrics, /healthz, /spans and pprof here (empty = disabled)")
}

// RPCTimeoutFlag registers -rpc-timeout with the binary's default deadline
// (pass the matching runtime default so help text and behavior agree).
func (c *Common) RPCTimeoutFlag(fs *flag.FlagSet, def time.Duration) {
	fs.DurationVar(&c.RPCTimeout, "rpc-timeout", def, "per-RPC deadline")
}

// PostmortemFlag registers -postmortem-dir; trigger names the event that
// dumps a bundle there (e.g. "on partial commit", "on SIGQUIT").
func (c *Common) PostmortemFlag(fs *flag.FlagSet, trigger string) {
	fs.StringVar(&c.PostmortemDir, "postmortem-dir", "",
		"dump a postmortem bundle (spans, metrics, profiles) here "+trigger+" (empty = disabled)")
}

// RoundIntervalFlag registers -round-interval.
func (c *Common) RoundIntervalFlag(fs *flag.FlagSet) {
	fs.DurationVar(&c.RoundInterval, "round-interval", 0,
		"sleep between rounds (lets dvdcctl top watch a live session)")
}

// TraceJSONLFlag registers -trace-jsonl.
func (c *Common) TraceJSONLFlag(fs *flag.FlagSet) {
	fs.StringVar(&c.TraceJSONL, "trace-jsonl", "",
		"stream every span to this JSONL file (render with dvdcctl trace)")
}

// HealthFlag registers -health.
func (c *Common) HealthFlag(fs *flag.FlagSet) {
	fs.BoolVar(&c.Health, "health", false,
		"run the SLO health engine: burn-rate alerts on /api/v1/health and /healthz?verbose=1, dvdc_slo_*/dvdc_alert_* metrics")
}

// StartHealth builds and starts the background health evaluator -health asks
// for, with the default cluster SLO rules installed, and returns it together
// with the mux mount serving /api/v1/health (pass it to ServeObs). Returns
// (nil, nil) when the flag is unset; callers Stop the evaluator on shutdown
// (a nil evaluator's Stop is a no-op). Alert transitions are marked in tr.
func (c *Common) StartHealth(reg *obs.Registry, tr *obs.Tracer) (*health.Evaluator, obs.Mount) {
	if !c.Health || reg == nil {
		return nil, nil
	}
	ev := health.New(health.Options{Registry: reg, Tracer: tr})
	health.InstallDefaultRules(ev, reg)
	ev.Start()
	return ev, ev.Mount()
}

// WantTracer reports whether any parsed flag needs a tracer built: a
// postmortem bundle's record is the tracer's ring.
func (c *Common) WantTracer() bool {
	return c.ObsAddr != "" || c.TraceJSONL != "" || c.PostmortemDir != ""
}

// OpenTraceSink attaches the -trace-jsonl sink to tr and returns a closer
// that flushes the tracer and closes the file, returning both errors joined.
// With the flag unset (or tr nil) it is a no-op returning a harmless closer.
func (c *Common) OpenTraceSink(tr *obs.Tracer) (func() error, error) {
	if c.TraceJSONL == "" || tr == nil {
		return func() error { return nil }, nil
	}
	f, err := os.Create(c.TraceJSONL)
	if err != nil {
		return nil, err
	}
	tr.SetSink(f)
	return func() error { return errors.Join(tr.Flush(), f.Close()) }, nil
}

// ServeObs starts the observability endpoint when -obs-addr was given and
// prints the canonical discovery lines: the human-facing URL on stdout
// (prefixed with the binary name) and the "obs listening on <addr>" line on
// stderr that scripts and the smoke tests parse — with -obs-addr :0 the
// kernel assigns the port and this line is how callers learn it. mounts
// attach extra handler sets (e.g. the service API) to the same mux. Returns
// (nil, nil) when the flag is unset.
func (c *Common) ServeObs(name string, reg *obs.Registry, tr *obs.Tracer, mounts ...obs.Mount) (*obs.Server, error) {
	if c.ObsAddr == "" {
		return nil, nil
	}
	// Every binary serving an obs endpoint reports its own Go runtime:
	// goroutine count, heap bytes, GC pauses.
	obs.MountGoRuntime(reg)
	srv, err := obs.Serve(c.ObsAddr, reg, tr, mounts...)
	if err != nil {
		return nil, err
	}
	fmt.Printf("%s observability on http://%s/metrics\n", name, srv.Addr())
	fmt.Fprintf(os.Stderr, "obs listening on %s\n", srv.Addr())
	return srv, nil
}
