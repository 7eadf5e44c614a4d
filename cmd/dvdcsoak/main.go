// Command dvdcsoak runs the seeded chaos soak against a live loopback
// cluster: N checkpoint rounds under injected frame corruption, connection
// drops, delays, transient partitions, and Poisson node kills, with the
// invariant battery of runtime.RunSoak checked after every round.
//
// Everything nondeterministic derives from -seed, so any failure this
// command reports is replayed exactly by rerunning with the printed seed
// (see EXPERIMENTS.md, "Reproducing a chaos failure by seed"). -service lets
// the checkpoint service drive the same rounds with timing-dependent retries,
// so the seed pins the default direct driver's -v digest (`make soak-digest`).
//
// Usage:
//
//	dvdcsoak -seed 424242                      # paper 4-node/12-VM layout
//	dvdcsoak -nodes 8 -rounds 20 -kill-mtbf 90
//	dvdcsoak -nodes 16 -group-size 4 -p-corrupt 0.02 -p-drop 0.02
//	dvdcsoak -chunk-faults 2 -chunk-size 256   # aim drop/corrupt at delta chunk frames
//	dvdcsoak -service                          # drive rounds through the checkpoint service
//	dvdcsoak -service -controller-restarts 2   # kill/restart the controller mid-soak (journal replay)
//	dvdcsoak -trace-jsonl soak.jsonl           # then: dvdcctl trace -in soak.jsonl
//	dvdcsoak -obs-addr 127.0.0.1:9100          # live /metrics during the soak
//	dvdcsoak -health -obs-addr 127.0.0.1:9100  # plus SLO burn-rate alerts on /api/v1/health
//	dvdcsoak -slow-node 1 -slow-delay 200ms -round-interval 250ms \
//	    -health -obs-addr 127.0.0.1:9100       # watch `dvdcctl health` catch the slow node
//	dvdcsoak -slow-node 1 -slow-delay 25ms -kill-mtbf 0 -adaptive \
//	    -rounds 16                             # watch the advisor drain the slow keeper
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dvdc/internal/chaos"
	"dvdc/internal/cli"
	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/adapt"
	"dvdc/internal/runtime"
)

// soakFlags is every dvdcsoak flag value, filled by registerFlags.
type soakFlags struct {
	nodes, stacks, tolerance, groupSize int
	rounds                              int
	steps                               uint64
	pages, pageSize                     int
	seed                                int64
	pCorrupt, pDrop, pDelay, pPart      float64
	armed, chunkSize, chunkArms         int
	killMTBF                            float64
	service                             bool
	adaptive                            bool
	stateDir                            string
	controllerRestarts                  int
	slowNode, slowFrom, slowUntil       int
	slowDelay                           time.Duration
	roundInterval                       time.Duration
	verbose                             bool
	common                              cli.Common
}

// registerFlags registers every dvdcsoak flag on fs, with defaults taken
// from the runtime's own defaulting constants. Split out of main so the
// tests can assert the CLI defaults and the library defaults never drift.
func registerFlags(fs *flag.FlagSet) *soakFlags {
	var f soakFlags
	fs.IntVar(&f.nodes, "nodes", 4, "physical nodes")
	fs.IntVar(&f.stacks, "stacks", 1, "RAID group stacks")
	fs.IntVar(&f.tolerance, "tolerance", 1, "parity blocks per group")
	fs.IntVar(&f.groupSize, "group-size", 0, "VMs per group (0 = nodes-tolerance, the paper's Fig. 4)")
	fs.IntVar(&f.rounds, "rounds", runtime.DefaultSoakRounds, "checkpoint rounds")
	fs.Uint64Var(&f.steps, "steps", runtime.DefaultSoakSteps, "workload steps per round")
	fs.IntVar(&f.pages, "pages", runtime.DefaultSoakPages, "pages per VM")
	fs.IntVar(&f.pageSize, "page-size", runtime.DefaultSoakPageSize, "bytes per page")
	fs.Int64Var(&f.seed, "seed", 1, "master seed: workloads, chaos, kills, arm plan")
	fs.Float64Var(&f.pCorrupt, "p-corrupt", 0.01, "per-frame corruption probability")
	fs.Float64Var(&f.pDrop, "p-drop", 0.01, "per-frame connection-drop probability")
	fs.Float64Var(&f.pDelay, "p-delay", 0.05, "per-frame delay probability")
	fs.Float64Var(&f.pPart, "p-partition", 0.1, "per-round transient partition probability")
	fs.IntVar(&f.armed, "arm-per-round", 2, "armed one-shot faults per round")
	fs.IntVar(&f.chunkSize, "chunk-size", 0, "data-path chunk size in bytes (0 = the default, 64 KiB)")
	fs.IntVar(&f.chunkArms, "chunk-faults", 0, "armed one-shot drop/corrupt faults per round aimed at delta chunk frames")
	fs.Float64Var(&f.killMTBF, "kill-mtbf", 120, "per-node MTBF in virtual seconds (0 = no kills)")
	fs.BoolVar(&f.service, "service", false,
		"drive every round through the declarative checkpoint service (request objects + reconciler) instead of invoking the coordinator directly")
	fs.StringVar(&f.stateDir, "state-dir", "",
		"directory for the service store's journal (requires -service; empty = a temp dir when -controller-restarts is set, else no journal)")
	fs.IntVar(&f.controllerRestarts, "controller-restarts", 0,
		"kill and restart the service controller this many times mid-soak, replaying its journal (requires -service)")
	fs.BoolVar(&f.adaptive, "adaptive", false,
		"close the telemetry loop: an advisor may evacuate parity keepers off habitually slow peers and retune the checkpoint interval from the live failure rate")
	fs.IntVar(&f.slowNode, "slow-node", -1,
		"make this node's data-plane ingest habitually slow: every bulk frame shipped to it stalls by -slow-delay (-1 = off; the health engine's round-time SLO should fire, and -adaptive should drain its parity)")
	fs.DurationVar(&f.slowDelay, "slow-delay", 400*time.Millisecond, "per-frame stall for -slow-node")
	fs.IntVar(&f.slowFrom, "slow-from", 0, "first round (0-based) the -slow-node stall is active")
	fs.IntVar(&f.slowUntil, "slow-until", 0, "first round the stall is lifted (0 = through the end)")
	fs.DurationVar(&f.roundInterval, "round-interval", 0,
		"wall-clock pause between rounds (0 = flat out); paces a soak being watched over -obs-addr")
	fs.BoolVar(&f.verbose, "v", false, "print the full fault log and per-round digest")
	f.common.RPCTimeoutFlag(fs, runtime.DefaultSoakRPCTimeout)
	f.common.TraceJSONLFlag(fs)
	f.common.ObsAddrFlag(fs)
	f.common.PostmortemFlag(fs, "on invariant violation or SIGQUIT")
	f.common.HealthFlag(fs)
	return &f
}

// validate rejects flag values and combinations the soak cannot run with.
func (f *soakFlags) validate() error {
	if f.chunkSize < 0 {
		return fmt.Errorf("-chunk-size %d: want 0 (default) or a positive byte count", f.chunkSize)
	}
	if (f.stateDir != "" || f.controllerRestarts > 0) && !f.service {
		return fmt.Errorf("-state-dir and -controller-restarts require -service")
	}
	return nil
}

func main() {
	f := registerFlags(flag.CommandLine)
	flag.Parse()
	fatal(f.validate())

	gs := f.groupSize
	if gs <= 0 {
		gs = f.nodes - f.tolerance
	}
	layout, err := cluster.BuildDistributedGroups(f.nodes, f.stacks, f.tolerance, gs)
	fatal(err)

	cfg := runtime.SoakConfig{
		Layout:        layout,
		Rounds:        f.rounds,
		StepsPerRound: f.steps,
		Pages:         f.pages,
		PageSize:      f.pageSize,
		Seed:          f.seed,
		Chaos:         chaos.Config{PCorrupt: f.pCorrupt, PDrop: f.pDrop, PDelay: f.pDelay},
		ArmPerRound:   f.armed,
		ChunkSize:     f.chunkSize,
		ChunkFaults:   f.chunkArms,
		PPartition:    f.pPart,
		KillMTBF:      f.killMTBF,
		RPCTimeout:    f.common.RPCTimeout,
		RoundInterval: f.roundInterval,
		Service:       f.service,
		Adaptive:      f.adaptive,
		Registry:      obs.NewRegistry(),

		StateDir:           f.stateDir,
		ControllerRestarts: f.controllerRestarts,

		SlowNode:  f.slowNode,
		SlowDelay: f.slowDelay,
		SlowFrom:  f.slowFrom,
		SlowUntil: f.slowUntil,
	}
	if f.slowNode < 0 {
		cfg.SlowDelay = 0
	}
	if f.common.WantTracer() {
		cfg.Tracer = obs.NewTracer(1 << 15)
	}
	cfg.PostmortemDir = f.common.PostmortemDir
	if cfg.PostmortemDir != "" {
		// SIGQUIT = "explain yourself": dump the black box and keep soaking.
		meta := map[string]interface{}{"seed": cfg.Seed, "rounds": cfg.Rounds, "nodes": layout.Nodes}
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			for range quit {
				if path, err := obs.Dump(cfg.PostmortemDir, "sigquit", cfg.Tracer, cfg.Registry, meta); err != nil {
					fmt.Fprintf(os.Stderr, "dvdcsoak: postmortem dump: %v\n", err)
				} else {
					fmt.Fprintf(os.Stderr, "dvdcsoak: postmortem bundle %s\n", path)
				}
			}
		}()
	}
	// The soak additionally ticks the evaluator once per round so the alert
	// timeline is aligned to round boundaries even on a fast run; the wall
	// clock loop keeps /api/v1/health fresh between rounds.
	ev, healthMount := f.common.StartHealth(cfg.Registry, cfg.Tracer)
	defer ev.Stop()
	cfg.Health = ev
	var mounts []obs.Mount
	if healthMount != nil {
		mounts = append(mounts, healthMount)
	}
	srv, err := f.common.ServeObs("dvdcsoak", cfg.Registry, cfg.Tracer, mounts...)
	fatal(err)
	if srv != nil {
		defer srv.Close()
	}

	mode := "direct"
	if f.service {
		mode = "service"
	}
	fmt.Printf("dvdcsoak: %d nodes, %d VMs, %d rounds, seed %d (%s mode)\n",
		layout.Nodes, len(layout.VMs), cfg.Rounds, cfg.Seed, mode)
	closeSink, err := f.common.OpenTraceSink(cfg.Tracer)
	fatal(err)
	start := time.Now()
	res, err := runtime.RunSoak(cfg)
	elapsed := time.Since(start)
	sinkErr := closeSink() // before any exit: a failed soak still leaves a complete span file
	if res == nil {
		fatal(err) // refused config or failed boot: no round ran, nothing violated
	}

	if f.verbose || err != nil {
		for _, line := range res.RoundDigest() {
			fmt.Println("  " + line)
		}
		fmt.Println("fault log:")
		for _, line := range res.FaultLogDigest() {
			fmt.Println("  " + line)
		}
	}
	fmt.Printf("faults: %v\n", res.Counters)
	fmt.Printf("final epoch %d across %d rounds, %d VMs verified, %.2fs wall\n",
		res.Epoch, len(res.Rounds), len(res.Checksums), elapsed.Seconds())
	if f.adaptive {
		printAdaptSummary(res, f.verbose)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "dvdcsoak: INVARIANT VIOLATION: %v\n", err)
		fmt.Fprintf(os.Stderr, "dvdcsoak: replay with -seed %d\n", f.seed)
		if f.common.PostmortemDir != "" {
			if bundles, berr := obs.FindBundles(f.common.PostmortemDir); berr == nil && len(bundles) > 0 {
				fmt.Fprintf(os.Stderr, "dvdcsoak: postmortem: dvdcctl postmortem -bundle %s\n", bundles[len(bundles)-1])
			}
		}
		os.Exit(1)
	}
	fatal(sinkErr)
	if f.common.TraceJSONL != "" {
		fmt.Printf("spans written to %s; render with: dvdcctl trace -in %s\n", f.common.TraceJSONL, f.common.TraceJSONL)
	}
	fmt.Printf("all invariants held; replay with -seed %d\n", f.seed)
}

// printAdaptSummary renders the adaptive run's paper trail: how many
// decisions the advisor took and applied, and how the checkpoint wall moved
// across the run (first round, worst round, final round) — the one-line
// answer to "did the loop converge". The full decision log (inputs -> rule
// -> action, one row per decision) prints under -v.
func printAdaptSummary(res *runtime.SoakResult, verbose bool) {
	var all []adapt.Decision
	applied, rebalances := 0, 0
	var first, peak, final time.Duration
	for _, rr := range res.Rounds {
		all = append(all, rr.Adapt...)
		peak = max(peak, rr.Wall)
		for _, d := range rr.Adapt {
			if d.Action != adapt.ActionApplied {
				continue
			}
			applied++
			if d.Rule == adapt.RuleKeeperRebalance {
				rebalances++
			}
		}
	}
	if n := len(res.Rounds); n > 0 {
		first = res.Rounds[0].Wall
		final = res.Rounds[n-1].Wall
	}
	const grain = 100 * time.Microsecond
	// The final/peak ratio is the machine-checkable convergence verdict: a
	// run that recovered from its worst round ends well under 1.0, and CI
	// greps the plain number rather than parsing unit-suffixed durations.
	ratio := 1.0
	if peak > 0 {
		ratio = float64(final) / float64(peak)
	}
	fmt.Printf("adaptive: %d decision(s), %d applied (%d keeper rebalance(s)); round wall first %s, peak %s, final %s (final/peak %.2f)\n",
		len(all), applied, rebalances, first.Round(grain), peak.Round(grain), final.Round(grain), ratio)
	if verbose && len(all) > 0 {
		fmt.Print(adapt.RenderDecisions(all))
	}
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "dvdcsoak:", err)
		os.Exit(1)
	}
}
