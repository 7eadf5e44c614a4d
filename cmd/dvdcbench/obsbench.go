package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"sort"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/collect"
	"dvdc/internal/obs/health"
	"dvdc/internal/runtime"
)

// The -obs mode measures what the telemetry plane costs: the same seeded
// checkpoint workload with observability off, fully on (tracer with JSONL
// sink, metrics registry, flight recorder tap, and a per-round collector pass
// building and verifying the merged round tree), and fully on plus the SLO
// health engine evaluating the default rule set once per round. The
// acceptance bar is that the fully instrumented rounds stay within a few
// percent of dark rounds — telemetry that distorts what it measures names
// the wrong straggler.

// obsCase is one measured configuration of the telemetry plane.
type obsCase struct {
	Mode          string  `json:"mode"`
	Rounds        int     `json:"rounds"`
	WallSeconds   float64 `json:"wall_seconds"`
	MSPerRound    float64 `json:"ms_per_round"`
	MSPerRoundMed float64 `json:"ms_per_round_median"`
	BytesShipped  int64   `json:"bytes_shipped"`
	SpansRecorded int     `json:"spans_recorded"`
	AllocBytes    uint64  `json:"alloc_bytes_total"`
	BytesPerRound uint64  `json:"alloc_bytes_per_round"`

	roundTimes []float64 // per-round wall seconds, for cross-try pooling
}

// obsReport is the BENCH_obs.json schema.
type obsReport struct {
	Generator     string    `json:"generator"`
	Layout        string    `json:"layout"`
	Pages         int       `json:"pages_per_vm"`
	PageSize      int       `json:"page_size"`
	StepsPerRound uint64    `json:"steps_per_round"`
	Seed          int64     `json:"seed"`
	Cases         []obsCase `json:"cases"`

	// Acceptance headlines, each a ratio of per-mode median round times.
	// OverheadPercent is full telemetry over dark rounds — the whole plane's
	// cost. HealthOverheadPercent is obs-health over obs-full: the marginal
	// cost of the SLO engine on top of the already-instrumented rounds, which
	// is the number the health engine's <= 5% bar is judged on (the engine is
	// one Tick of windowed quantiles and burn ratios per round; see
	// BenchmarkTickDefaultRules for the microbenchmark, ~30 us against a
	// 200-series registry).
	OverheadPercent       float64 `json:"overhead_percent"`
	HealthOverheadPercent float64 `json:"health_overhead_percent"`
}

// runObsBench executes the comparison and writes the JSON artifact.
func runObsBench(rounds int, seed int64, outPath string) error {
	const (
		pages    = 256
		pageSize = 4096
		steps    = 120
	)
	rep := obsReport{
		Generator:     "dvdcbench -obs",
		Layout:        "paper 4-node / 12-VM (Fig. 5)",
		Pages:         pages,
		PageSize:      pageSize,
		StepsPerRound: steps,
		Seed:          seed,
	}
	// Many short interleaved batches, per-round timing, per-mode median:
	// scheduler noise on a small (often single-vCPU) CI machine comes in
	// multi-second bursts that dwarf the telemetry cost itself, so any
	// single batch wall — or any single back-to-back ratio — compares
	// weather, not telemetry. Short batches spread each mode's rounds
	// across many time slots, so a burst degrades all three modes' pools
	// alike; each round is timed individually (a hundred-plus ~15 ms
	// samples per mode) and the median round time per mode is burst-immune
	// while still including typical GC activity. The headline overheads are
	// ratios of medians.
	const tries = 18
	batchRounds := rounds / 3
	if batchRounds < 4 {
		batchRounds = 4
	}
	modes := []string{"obs-off", "obs-full", "obs-health"}
	best := map[string]obsCase{}
	pooled := map[string][]float64{}
	for try := 0; try < tries; try++ {
		for _, mode := range modes {
			res, err := measureObs(mode, batchRounds, pages, pageSize, steps, seed)
			if err != nil {
				return fmt.Errorf("%s: %w", mode, err)
			}
			pooled[mode] = append(pooled[mode], res.roundTimes...)
			if b, ok := best[mode]; !ok || res.WallSeconds < b.WallSeconds {
				best[mode] = res
			}
		}
	}
	med := map[string]float64{}
	for _, mode := range modes {
		res := best[mode]
		med[mode] = median(pooled[mode])
		res.MSPerRoundMed = med[mode] * 1e3
		rep.Cases = append(rep.Cases, res)
		fmt.Printf("%-10s %6.1f ms/round median  %8.2f MB alloc/round  %d spans\n",
			res.Mode, res.MSPerRoundMed, float64(res.BytesPerRound)/1e6, res.SpansRecorded)
	}
	if dark := med["obs-off"]; dark > 0 {
		rep.OverheadPercent = (med["obs-full"]/dark - 1) * 100
	}
	if fullMed := med["obs-full"]; fullMed > 0 {
		rep.HealthOverheadPercent = (med["obs-health"]/fullMed - 1) * 100
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("full-telemetry round-time overhead over dark rounds: %+.2f%%\n", rep.OverheadPercent)
	fmt.Printf("health engine marginal overhead over full telemetry: %+.2f%%\n", rep.HealthOverheadPercent)
	fmt.Printf("wrote %s\n", outPath)
	return nil
}

// median returns the lower-middle median of vs (0 when empty).
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}

// measureObs runs one configuration: a fresh loopback cluster, two warm-up
// rounds, then the timed rounds bracketed by GC-settled MemStats reads. In
// obs-full mode every layer of the telemetry plane is live: tracer with a
// discarding JSONL sink on coordinator and nodes, registry, flight-recorder
// taps on pools and tracer, and a collector pass per round that builds,
// verifies, and attributes the merged round tree.
func measureObs(mode string, rounds, pages, pageSize int, steps uint64, seed int64) (obsCase, error) {
	fail := func(err error) (obsCase, error) { return obsCase{}, err }
	full := mode != "obs-off"
	withHealth := mode == "obs-health"
	layout, err := cluster.Paper12VM()
	if err != nil {
		return fail(err)
	}

	var (
		tr  *obs.Tracer
		reg *obs.Registry
		rec *obs.FlightRecorder
		ev  *health.Evaluator
	)
	// Ring capacity: a batch records a few hundred spans per tracer, and an
	// oversized ring is not free — its zeroed backing array (hundreds of KB
	// per 4k spans) is allocated per batch and feeds background GC work that
	// bleeds into the timed rounds.
	const ringSize = 1 << 12
	var nodeTracers []*obs.Tracer
	if full {
		tr = obs.NewTracer(ringSize)
		tr.SetSink(io.Discard)
		reg = obs.NewRegistry()
		rec = obs.NewFlightRecorder(0)
		rec.SetRegistry(reg)
		tr.SetTap(rec.Span)
	}
	if withHealth {
		// FixedStep and ticked once per round, mirroring how the soak drives
		// the evaluator: the measured cost is the full default rule set
		// (scrape, windowed quantiles, burn ratios, alert export) per round.
		ev = health.New(health.Options{Registry: reg, Recorder: rec, FixedStep: time.Second})
		health.InstallDefaultRules(ev, reg)
	}
	nodes := make([]*runtime.Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		// Each node gets its own tracer/registry/recorder, exactly as each
		// dvdcnode process owns its own in a real deployment — sharing one
		// set across all five "processes" would measure in-process lock
		// contention no deployed cluster has.
		var nopts runtime.NodeOptions
		if full {
			ntr := obs.NewTracer(ringSize)
			ntr.SetSink(io.Discard)
			nreg := obs.NewRegistry()
			nrec := obs.NewFlightRecorder(0)
			nrec.SetRegistry(nreg)
			ntr.SetTap(nrec.Span)
			nodeTracers = append(nodeTracers, ntr)
			nopts = runtime.NodeOptions{Tracer: ntr, Registry: nreg, Recorder: nrec}
		}
		n, err := runtime.NewNodeWith("127.0.0.1:0", nopts)
		if err != nil {
			return fail(err)
		}
		defer n.Close()
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	coord, err := runtime.NewCoordinator(layout, addrs, pages, pageSize, seed)
	if err != nil {
		return fail(err)
	}
	defer coord.Close()
	if full {
		coord.SetObserver(tr, reg)
		coord.SetFlightRecorder(rec)
	}
	if err := coord.Setup(); err != nil {
		return fail(err)
	}
	spans := 0
	round := func() error {
		if err := coord.Step(steps); err != nil {
			return err
		}
		if err := coord.Checkpoint(); err != nil {
			return err
		}
		if full {
			// The collector pass the telemetry plane adds per round: gather the
			// round's spans from every process's tracer (the in-process
			// analogue of scraping each /spans endpoint), merge, verify the
			// tree, and attribute the straggler.
			tid := coord.RoundStats().TraceID
			roundSpans := tr.TraceSpans(tid)
			for _, ntr := range nodeTracers {
				roundSpans = append(roundSpans, ntr.TraceSpans(tid)...)
			}
			tree := collect.BuildTree(roundSpans)
			if err := tree.Verify(); err != nil {
				return err
			}
			collect.Attribute(tree).Export(reg)
			spans += len(tree.Spans)
		}
		if withHealth {
			ev.Tick()
		}
		return nil
	}
	for i := 0; i < 2; i++ {
		if err := round(); err != nil {
			return fail(err)
		}
	}

	var before, after goruntime.MemStats
	goruntime.GC()
	goruntime.ReadMemStats(&before)
	var shipped int64
	spans = 0
	roundTimes := make([]float64, 0, rounds)
	start := time.Now()
	for i := 0; i < rounds; i++ {
		rs := time.Now()
		if err := round(); err != nil {
			return fail(err)
		}
		roundTimes = append(roundTimes, time.Since(rs).Seconds())
		shipped += coord.RoundStats().BytesShipped
	}
	wall := time.Since(start)
	goruntime.ReadMemStats(&after)

	return obsCase{
		Mode:          mode,
		Rounds:        rounds,
		WallSeconds:   wall.Seconds(),
		MSPerRound:    wall.Seconds() / float64(rounds) * 1e3,
		BytesShipped:  shipped,
		SpansRecorded: spans,
		AllocBytes:    after.TotalAlloc - before.TotalAlloc,
		BytesPerRound: (after.TotalAlloc - before.TotalAlloc) / uint64(rounds),
		roundTimes:    roundTimes,
	}, nil
}
