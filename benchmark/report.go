package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	goruntime "runtime"
	"runtime/debug"
	"strconv"
	"strings"
)

// metricDef declares one metric: BENCHMARK.json is this table written down
// (the package test keeps the two equal).
type metricDef struct {
	name, unit, better string
	bound              float64 // end-to-end only: share of the parent's median it may worsen by
	what               string  // estimator, for -list and README.md
}

// endToEnd are the gated metrics; every workload reports all of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25, "median of 5 warm bring-ups (daemons + coordinator + Setup + first round to epoch 1), one cold bring-up discarded first"},
	{"round_ms", "ms", "lower", 0.25, "qw (windows of 3 rounds) of Checkpoint() wall over the timed rounds; Step is outside the timer"},
	{"round_cpu_ms", "ms", "lower", 0.25, "qw (windows of 3 rounds) of process user+sys CPU (getrusage) across the same Checkpoint() calls"},
	{"recovery_ms", "ms", "lower", 0.25, "qw (windows of 3 cycles) of RecoverNodes(victims...) wall, first cycle discarded"},
	{"wire_bytes_per_dirty_byte", "ratio", "lower", 0.02, "sum of RoundStats.BytesShipped / dirty bytes (each dirty byte once) over the timed rounds"},
	{"alloc_mb_per_round", "MB", "lower", 0.05, "delta of MemStats.TotalAlloc over the timed rounds / rounds"},
	{"mem_bytes_per_image_byte", "ratio", "lower", 0.05, "max over block boundaries of HeapInuse after runtime.GC() / guest image bytes"},
}

// report is the -out file: everything needed to read a number without the
// machine that produced it.
type report struct {
	Claim      *string           `json:"claim"` // this benchmark defines metrics; it claims no gain
	Comparable bool              `json:"comparable"`
	Seed       int64             `json:"seed"`
	Seconds    int               `json:"seconds"`
	Env        map[string]string `json:"env"`
	Workloads  []*workloadReport `json:"workloads"`
}

func newReport(seed int64, seconds int, quick bool) *report {
	return &report{Comparable: !quick, Seed: seed, Seconds: seconds, Env: environment()}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// environment records what a reader needs to place the numbers.
func environment() map[string]string {
	env := map[string]string{
		"nproc":      strconv.Itoa(goruntime.NumCPU()),
		"gomaxprocs": strconv.Itoa(goruntime.GOMAXPROCS(0)),
		"gogc":       "100",
		"go":         goruntime.Version(),
		"commit":     "unknown",
		"l2":         cacheSize(2),
		"l3":         cacheSize(3),
	}
	if v := os.Getenv("GOGC"); v != "" {
		env["gogc"] = v
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env["commit"] = s.Value
			}
		}
	}
	return env
}

// cacheSize reads cpu0's cache size at a level from sysfs ("unknown" off
// Linux or in a sandbox that hides it).
func cacheSize(level int) string {
	for i := 0; i < 8; i++ {
		dir := fmt.Sprintf("/sys/devices/system/cpu/cpu0/cache/index%d/", i)
		lv, err := os.ReadFile(dir + "level")
		if err != nil {
			break
		}
		if strings.TrimSpace(string(lv)) != strconv.Itoa(level) {
			continue
		}
		if sz, err := os.ReadFile(dir + "size"); err == nil {
			return strings.TrimSpace(string(sz))
		}
	}
	return "unknown"
}

// workloadReport is one workload's run. Metrics holds exactly the names
// BENCHMARK.json lists for the mode (end_to_end untraced, per_layer traced);
// Context holds what else the run measured on the way.
type workloadReport struct {
	Workload   string            `json:"workload"`
	Why        string            `json:"why"`
	Traced     bool              `json:"traced"`
	Comparable bool              `json:"comparable"`
	Correct    bool              `json:"correct"`
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	ImageBytes int64             `json:"image_bytes"`
	Rounds     int               `json:"timed_rounds"`
	Cycles     int               `json:"timed_cycles"`
	Steps      uint64            `json:"steps_per_vm_per_round"`
	TimedS     float64           `json:"timed_section_s"`
	Metrics    map[string]metric `json:"metrics"`
	Context    map[string]metric `json:"context,omitempty"`
	Samples    map[string]int    `json:"samples"`

	// Series are the raw observations behind the timing estimators, in run
	// order, so a reader of the -out file can see the drift the estimators
	// are built to survive (and try another estimator without another run).
	Series map[string][]float64 `json:"series,omitempty"`

	order []string // print order of Metrics then Context
}

func newWorkloadReport(s spec, traced bool) *workloadReport {
	return &workloadReport{
		Workload: s.name, Why: s.why, Traced: traced, Comparable: !s.nonCompar,
		Rounds: s.rounds, Cycles: s.cycles, Steps: s.steps,
		Metrics: map[string]metric{}, Context: map[string]metric{}, Samples: map[string]int{},
	}
}

// set records a gated metric; note records context. samples is how many raw
// observations the estimator saw (0 = a count, not an estimate).
func (w *workloadReport) set(name, unit string, v float64, samples int) {
	w.Metrics[name] = metric{v, unit}
	w.Samples[name] = samples
	w.order = append(w.order, name)
}

func (w *workloadReport) note(name, unit string, v float64, samples int) {
	w.Context[name] = metric{v, unit}
	w.Samples[name] = samples
	w.order = append(w.order, name)
}

func (w *workloadReport) finish(o ops) {
	w.Attempted, w.Failed = o.attempted, o.failed
	w.Correct = o.failed == 0
}

// contractLine is the object the acceptance driver parses from the last
// stdout line.
func (w *workloadReport) contractLine() map[string]any {
	return map[string]any{
		"correct":   w.Correct,
		"attempted": w.Attempted,
		"failed":    w.Failed,
		"metrics":   w.Metrics,
	}
}

func (w *workloadReport) print(out io.Writer) {
	mode := "end-to-end"
	if w.Traced {
		mode = "per-layer (traced)"
	}
	fmt.Fprintf(out, "== %s, %s: %d timed rounds x %d steps/VM, %d timed cycles, guest image %d MiB (L2 %s, L3 %s), timed section %.1f s\n",
		w.Workload, mode, w.Rounds, w.Steps, w.Cycles, w.ImageBytes>>20, cacheSize(2), cacheSize(3), w.TimedS)
	if !w.Comparable {
		fmt.Fprintln(out, "   -quick: smoke-test sizes, NOT comparable with any other run")
	}
	for _, name := range w.order {
		m, gated := w.Metrics[name]
		tag := ""
		if !gated {
			m, tag = w.Context[name], "  (context)"
		}
		n := ""
		if c := w.Samples[name]; c > 0 {
			n = fmt.Sprintf("  n=%d", c)
		}
		fmt.Fprintf(out, "%-34s %14.4f %-6s%s%s\n", name, m.Value, m.Unit, n, tag)
	}
	fmt.Fprintf(out, "operations: %d attempted, %d failed\n", w.Attempted, w.Failed)
}

// quiet applies qw with the suite's window to several series and keeps the
// first error (a series too short to have two windows).
type quiet struct{ err error }

func (q *quiet) of(xs []float64) float64 {
	v, err := qw(xs, window)
	if err != nil && q.err == nil {
		q.err = err
	}
	return v
}

// e2eReport runs one workload untraced and reduces it to the end-to-end
// metrics plus plain-percentile context.
func e2eReport(s spec, seed int64) (*workloadReport, error) {
	run, err := runE2E(s, seed)
	if err != nil {
		return nil, err
	}
	w := newWorkloadReport(s, false)
	w.ImageBytes = run.image
	rs, cs := run.rounds, run.cycles
	w.TimedS = timedSeconds(rs, cs)
	var q quiet
	roundMs, cpuMs, recMs := q.of(rs.wallMs), q.of(rs.cpuMs), q.of(cs.recoverMs)
	if q.err != nil {
		return nil, q.err
	}
	w.Series = map[string][]float64{
		"setup_s": run.setupS, "round_ms": rs.wallMs, "round_cpu_ms": rs.cpuMs,
		"recovery_ms": cs.recoverMs, "rebalance_ms": cs.rebalanceMs, "repair_ms": cs.repairMs,
	}
	w.set("setup_s", "s", median(run.setupS), len(run.setupS))
	w.set("round_ms", "ms", roundMs, len(rs.wallMs))
	w.set("round_cpu_ms", "ms", cpuMs, len(rs.cpuMs))
	w.set("recovery_ms", "ms", recMs, len(cs.recoverMs))
	w.set("wire_bytes_per_dirty_byte", "ratio", float64(rs.shipped)/float64(rs.dirty), 0)
	w.set("alloc_mb_per_round", "MB", float64(rs.allocBytes)/1e6/float64(len(rs.wallMs)), 0)
	w.set("mem_bytes_per_image_byte", "ratio", float64(rs.heapMax)/float64(run.image), heapBlocks+1)

	w.note("runtime.round_ms_p50", "ms", percentile(rs.wallMs, 0.5), len(rs.wallMs))
	w.note("runtime.round_ms_p90", "ms", percentile(rs.wallMs, 0.9), len(rs.wallMs))
	w.note("runtime.recovery_ms_p50", "ms", percentile(cs.recoverMs, 0.5), len(cs.recoverMs))
	w.note("runtime.recovery_ms_p90", "ms", percentile(cs.recoverMs, 0.9), len(cs.recoverMs))
	w.note("runtime.chunks_per_round", "count", float64(rs.chunks)/float64(len(rs.wallMs)), 0)
	w.note("transport.retries", "count", float64(rs.retries), 0)
	w.note("runtime.run_s", "s", run.runWall.Seconds(), 1)
	w.note("roofline.memcpy_mb_s", "MB/s", run.roofs["roofline.memcpy_mb_s"], 2*window)
	w.note("roofline.loopback_mb_s", "MB/s", run.roofs["roofline.loopback_mb_s"], 2*window)
	w.finish(run.ops)
	return w, nil
}

// printList prints the workloads and the metric tables.
func printList(out io.Writer) {
	fmt.Fprintln(out, "workloads:")
	for _, s := range workloads {
		fmt.Fprintf(out, "  %-14s %s\n", s.name, s.why)
	}
	fmt.Fprintln(out, "end-to-end metrics (every workload, -trace 0):")
	for _, m := range endToEnd {
		fmt.Fprintf(out, "  %-28s %-6s %s better, bound %.2f: %s\n", m.name, m.unit, m.better, m.bound, m.what)
	}
	fmt.Fprintln(out, "per-layer metrics (every workload, -trace 1):")
	for _, m := range perLayer {
		fmt.Fprintf(out, "  %-28s %-6s %s better: %s\n", m.name, m.unit, m.better, m.what)
	}
}

// perLayer are the traced run's metrics: single layers, no bounds. src is in
// the what text: S = span tree of the traced run, R = layer replay, W = wall
// clock around a runtime call, C = a count.
var perLayer = []metricDef{
	{"runtime.prepare_ms", "ms", "lower", 0, "S: median prepare span over the traced rounds"},
	{"runtime.commit_ms", "ms", "lower", 0, "S: median commit span over the traced rounds"},
	{"runtime.ship_self_ms", "ms", "lower", 0, "S: median per round of the summed self time of ship spans"},
	{"runtime.fold_self_ms", "ms", "lower", 0, "S: median per round of the summed self time of fold spans"},
	{"transport.rpc_wait_ms", "ms", "lower", 0, "S: median per round of the summed self time of rpc spans"},
	{"runtime.rpcs_per_round", "count", "lower", 0, "S: rpc spans per traced round"},
	{"runtime.coord_self_ms", "ms", "lower", 0, "S: median per round of the coord lane's self time"},
	{"runtime.rollback_ms", "ms", "lower", 0, "S: median rollback span over the traced recoveries"},
	{"runtime.restore_ms", "ms", "lower", 0, "S: median wall extent of the concurrent restore spans"},
	{"runtime.rehome_ms", "ms", "lower", 0, "S: median wall extent of the concurrent rehome spans"},
	{"runtime.run_s", "s", "lower", 0, "W: wall of the whole traced run"},
	{"runtime.rebalance_ms", "ms", "lower", 0, "W: qw of Rebalance() wall over the cycles"},
	{"runtime.repair_ms", "ms", "lower", 0, "W: qw of Repair() wall over the cycles (all victims)"},
	{"runtime.round_ms_p50", "ms", "lower", 0, "W: plain median of the untraced rounds' Checkpoint() wall"},
	{"runtime.round_ms_p90", "ms", "lower", 0, "W: plain p90 of the same"},
	{"runtime.recovery_ms_p50", "ms", "lower", 0, "W: plain median of RecoverNodes() wall over the cycles"},
	{"runtime.recovery_ms_p90", "ms", "lower", 0, "W: plain p90 of the same"},
	{"runtime.chunks_per_round", "count", "lower", 0, "C: RoundStats.ChunksShipped per round; exact for a seed"},
	{"runtime.dedup_hit_frac", "ratio", "higher", 0, "C: dedup hits / (hits + misses) over the timed rounds"},
	{"transport.retries", "count", "lower", 0, "C: RoundStats.RPCRetries summed over the timed rounds; must be 0"},
	{"obs.trace_overhead_frac", "ratio", "lower", 0, "S vs W: qw of the traced rounds / qw of the untraced rounds - 1, rounds interleaved ABBA"},
	{"roofline.memcpy_mb_s", "MB/s", "higher", 0, "R: copy() of 64 MiB"},
	{"roofline.loopback_mb_s", "MB/s", "higher", 0, "R: one-way loopback TCP of 64 MiB in 64 KiB writes"},
	{"vm.step_ns", "ns", "lower", 0, "R: one workload Step on a machine of the workload's image size"},
	{"core.capture_mb_s", "MB/s", "higher", 0, "R: Member.CaptureDeltaInto(bufpool.Get) on a machine dirtied like the workload"},
	{"core.capture_allocs_per_mb", "1/MB", "lower", 0, "R: heap allocations per captured MB"},
	{"wire.encode_mb_s", "MB/s", "higher", 0, "R: FrameWriter.AppendChunkScatter over the captured pages"},
	{"wire.decode_mb_s", "MB/s", "higher", 0, "R: DecodeChunkPrefix (CRC included) over the rendered batches"},
	{"wire.assemble_mb_s", "MB/s", "higher", 0, "R: Assembler.Add to Complete for one image"},
	{"transport.rpc_us", "us", "lower", 0, "R: Pool.Call with an empty payload to a discarding handler"},
	{"transport.bulk_mb_s", "MB/s", "higher", 0, "R: Pool.Call with 1 MiB of PayloadSegs to a discarding handler"},
	{"parity.xor_mb_s", "MB/s", "higher", 0, "R: XORInto on image-sized blocks"},
	{"parity.xor_drain_mb_s", "MB/s", "higher", 0, "R: XORDrain on image-sized blocks"},
	{"parity.gf_mul_mb_s", "MB/s", "higher", 0, "R: MulSliceInto on image-sized blocks"},
	{"parity.rs_reconstruct_mb_s", "MB/s", "higher", 0, "R: RS(3,2).Reconstruct with 2 data erasures, rebuilt bytes per second"},
	{"parity.xor_reconstruct_mb_s", "MB/s", "higher", 0, "R: ReconstructOne over 3 survivors, bytes read per second"},
	{"core.fold_mb_s", "MB/s", "higher", 0, "R: MKeeper.FoldInto per decoded chunk (XOR for m=1, GF for m=2)"},
	{"core.commit_mb_s", "MB/s", "higher", 0, "R: MKeeper.DrainPendingRanges over the round's coalesced ranges"},
	{"bufpool.miss_frac", "ratio", "lower", 0, "C: pooled Gets that allocated / pooled Gets, over the timed rounds"},
	{"bufpool.oversize_per_round", "count", "lower", 0, "C: Gets beyond the largest class per round"},
	{"core.capture_vs_memcpy", "ratio", "higher", 0, "R: core.capture_mb_s / roofline.memcpy_mb_s"},
	{"parity.xor_vs_memcpy", "ratio", "higher", 0, "R: parity.xor_mb_s / roofline.memcpy_mb_s"},
	{"transport.bulk_vs_loopback", "ratio", "higher", 0, "R: transport.bulk_mb_s / roofline.loopback_mb_s"},
}

// tracedReport runs one workload traced and reduces it to the per-layer
// metrics.
func tracedReport(s spec, seed int64, traceOut string) (*workloadReport, error) {
	// The same rounds (half of them traced) but half the recovery cycles: the
	// layer replay needs its share of the run.
	s.cycles = max(2*window, s.cycles/2)
	run, err := runTraced(s, seed, traceOut)
	if err != nil {
		return nil, err
	}
	w := newWorkloadReport(s, true)
	w.ImageBytes = run.image
	rs, cs := run.rounds, run.cycles
	w.TimedS = timedSeconds(rs, cs)
	type sample struct {
		v float64
		n int
	}
	nU, nC := len(run.untracedMs), len(cs.recoverMs)
	rounds := float64(len(rs.wallMs))
	var dedupFrac, missFrac float64
	if n := rs.hits + rs.misses; n > 0 {
		dedupFrac = float64(rs.hits) / float64(n)
	}
	if rs.pool.Gets > 0 {
		missFrac = float64(rs.pool.Misses) / float64(rs.pool.Gets)
	}
	var q quiet
	values := map[string]sample{
		"runtime.run_s":              {run.runWall.Seconds(), 1},
		"runtime.rebalance_ms":       {q.of(cs.rebalanceMs), nC},
		"runtime.repair_ms":          {q.of(cs.repairMs), nC},
		"runtime.round_ms_p50":       {percentile(run.untracedMs, 0.5), nU},
		"runtime.round_ms_p90":       {percentile(run.untracedMs, 0.9), nU},
		"runtime.recovery_ms_p50":    {percentile(cs.recoverMs, 0.5), nC},
		"runtime.recovery_ms_p90":    {percentile(cs.recoverMs, 0.9), nC},
		"runtime.chunks_per_round":   {float64(rs.chunks) / rounds, 0},
		"runtime.dedup_hit_frac":     {dedupFrac, 0},
		"transport.retries":          {float64(rs.retries), 0},
		"obs.trace_overhead_frac":    {q.of(run.tracedMs)/q.of(run.untracedMs) - 1, len(run.tracedMs)},
		"bufpool.miss_frac":          {missFrac, 0},
		"bufpool.oversize_per_round": {float64(rs.pool.Oversize) / rounds, 0},
	}
	if q.err != nil {
		return nil, q.err
	}
	for name, v := range run.layers {
		values[name] = sample{v, run.layerSamples[name]}
	}
	// Span-tree metrics: the median over the traced rounds / recoveries.
	for _, trees := range [][]map[string]float64{run.roundTrees, run.recoveryTrees} {
		cols := map[string][]float64{}
		for _, t := range trees {
			for name, v := range t {
				cols[name] = append(cols[name], v)
			}
		}
		for name, col := range cols {
			values[name] = sample{median(col), len(col)}
		}
	}
	for _, m := range perLayer {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", m.name)
		}
		w.set(m.name, m.unit, v.v, v.n)
	}
	w.note("trace.spans", "count", float64(run.spans), 0)
	w.note("trace.trees_verified", "count", float64(run.trees), 0)
	w.finish(run.ops)
	return w, nil
}
