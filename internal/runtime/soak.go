package runtime

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"dvdc/internal/chaos"
	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/obs/adapt"
	"dvdc/internal/obs/collect"
	"dvdc/internal/obs/health"
	"dvdc/internal/wire"
)

// SoakConfig drives one invariant-checked chaos soak: N checkpoint rounds on
// a live TCP cluster while a seeded chaos.Injector corrupts, drops, delays,
// and partitions traffic and a seeded kill plan takes whole nodes down.
// Everything nondeterministic is derived from Seed, so a failing run is
// replayed by its seed alone.
type SoakConfig struct {
	Layout        *cluster.Layout
	Rounds        int           // checkpoint rounds (default 10)
	StepsPerRound uint64        // workload steps before each checkpoint (default 40)
	Pages         int           // VM geometry (default 16)
	PageSize      int           // (default 64)
	Seed          int64         // master seed: workloads, chaos, kills, arm plan
	Chaos         chaos.Config  // probabilistic rates, active only during checkpoints
	ArmPerRound   int           // armed one-shot faults per round on coordinator pairs
	ChunkSize     int           // chunk payload bytes (0 = wire.DefaultChunkSize)
	ChunkFaults   int           // armed one-shot chunk-frame faults per round on member-host -> parity edges
	Workload      string        // workload kind every VM runs ("" = uniform; see WorkloadRewrite)
	Dedup         bool          // nodes skip dirty pages equal to their committed image
	PPartition    float64       // per-round probability of a transient node-pair partition
	KillMTBF      float64       // per-node MTBF in virtual seconds (0 = no kills)
	RPCTimeout    time.Duration // coordinator/node per-call deadline (default 5s)
	RoundInterval time.Duration // wall-clock pause after each round (0 = flat out); paces a soak being watched over -obs-addr

	// Slow-node plan: a standing per-frame delay on every bulk data frame
	// destined to SlowNode (data-plane ingest congestion; see
	// chaos.Injector.SlowNode) for 0-based rounds [SlowFrom, SlowUntil) —
	// the "habitually slow peer" the health engine's round-time SLO is built
	// to catch and the adaptive keeper-rebalance rule is built to drain.
	// SlowDelay <= 0 disables; SlowUntil <= 0 means through the last round.
	// Unlike armed one-shots the delay applies even while probabilistic
	// chaos is paused, so it stretches whole checkpoint rounds.
	SlowDelay time.Duration
	SlowNode  int
	SlowFrom  int
	SlowUntil int

	// Health, when set, is ticked once after each round's invariant
	// verification, so a fixed-step evaluator's SLO windows march in lockstep
	// with rounds: N slow rounds are N evaluation ticks, deterministically.
	Health *health.Evaluator

	// Adaptive closes the telemetry loop: after each verified round an
	// obs/adapt.Advisor reads the round's critical-path attribution, the
	// habitual-slow-peer flags and the failure rate, and may evacuate parity
	// keepers off a flagged node or retune the checkpoint interval (the
	// workload steps between checkpoints). Decisions land in RoundRecord.Adapt
	// and dvdc_adapt_*; applications pause while a Health rule fires.
	Adaptive bool

	// Service routes every checkpoint and recovery through the declarative
	// control plane (internal/service): each round submits requests to a
	// reconciler, which calls the same executor, waits for them to end, and
	// runs the same invariants plus request convergence (no stuck phases,
	// observed generations current, reconcile spans rooting the round traces).
	Service bool

	// StateDir (service mode) backs the control plane with a durable journal.
	// ControllerRestarts (service mode) kills and restarts the controller that
	// many times, on distinct rounds other than the first and the last: the
	// reconciler stops, the round's requests land in the journal untouched,
	// then a fresh Service replays the state dir and must converge every
	// request it inherits. Restarts with no StateDir get a temp dir.
	StateDir           string
	ControllerRestarts int

	// Observability (all optional). Tracer receives every span (nil: the soak
	// builds its own and asserts none leaks open). Registry collects the
	// metrics, the injector's tallies as dvdc_chaos_faults_total{kind}.
	// PostmortemDir receives the black box, the run's tracer ring and
	// registry, as a postmortem bundle on any invariant violation or partial
	// commit ("" disables dumping).
	Tracer        *obs.Tracer
	Registry      *obs.Registry
	PostmortemDir string
}

// RoundRecord is the deterministic per-round outcome of a soak; ShipCounts,
// Aborted and DeadDuring fold the RoundStats of each checkpoint the round ran.
// Under a fixed seed every field but RPCRetries and Straggler (and the
// timing fields below) is bit-reproducible: RPCRetries depends on
// connection-pool reuse timing (checked as a lower-bounded reconciliation
// instead) and Straggler on which member's spans dominated the critical path.
type RoundRecord struct {
	ShipCounts        // summed over the round's checkpoints
	Round      int    // 1-based, matches the injector's round tags
	Epoch      uint64 // coordinator epoch at the end of the round
	Aborted    bool   // one of the round's checkpoints aborted
	DeadDuring []int  // nodes declared dead mid-commit (PartialCommitError)
	Kills      []int  // nodes the kill plan took down this round
	Straggler  string // lane the round's critical path waited on (timing-dependent)
	RPCRetries int64  // coordinator transport retries over the round's whole drive, checkpoint and repair (timing-dependent)
	Retries    int    // reconcile attempts beyond the first, summed over the round's requests (service driver; direct is 0)

	// Wall is the round's checkpoint-trace wall clock (the merged span tree's
	// extent) and Adapt the advisor's decisions for the round (Adaptive mode).
	// Both timing-dependent, both excluded from RoundDigest.
	Wall  time.Duration
	Adapt []adapt.Decision
}

// SoakResult is the full account of a soak run.
type SoakResult struct {
	Rounds    []RoundRecord
	FaultLog  []chaos.Fault
	Checksums map[string]uint64 // final committed-image checksums
	Epoch     uint64            // final committed epoch
	Counters  map[string]int64  // injector fault tallies by kind
	// ControllerRestarts counts the controller kill/restart cycles the run
	// actually performed (service mode with SoakConfig.ControllerRestarts).
	ControllerRestarts int
}

// FaultLogDigest renders the fault log by round, then by line: faults within
// one round fire concurrently across pairs, so only a sorted log reproduces.
func (r *SoakResult) FaultLogDigest() []string {
	log := append([]chaos.Fault(nil), r.FaultLog...)
	sort.Slice(log, func(i, j int) bool { return log[i].String() < log[j].String() })
	sort.SliceStable(log, func(i, j int) bool { return log[i].Round < log[j].Round })
	out := make([]string, len(log))
	for i, f := range log {
		out[i] = f.String()
	}
	return out
}

// RoundDigest renders the reproducible per-round fields as one line per
// round, for byte-comparison between same-seed runs.
func (r *SoakResult) RoundDigest() []string {
	out := make([]string, len(r.Rounds))
	for i, rr := range r.Rounds {
		out[i] = fmt.Sprintf("round %d: epoch=%d aborted=%v shipped=%d dead=%v kills=%v",
			rr.Round, rr.Epoch, rr.Aborted, rr.BytesShipped, rr.DeadDuring, rr.Kills)
	}
	return out
}

// soakEnv is everything a soak run shares between its two drivers: the
// instrumented cluster, the shadow model, the chaos machinery, and the
// invariant checks.
type soakEnv struct {
	cfg       SoakConfig
	layout    *cluster.Layout
	res       *SoakResult
	tr        *obs.Tracer
	ownTracer bool
	inj       *chaos.Injector
	kills     *chaos.KillPlan
	harness   *rand.Rand
	cl        *Cluster
	shadow    *Shadow
	outliers  *collect.OutlierTracker
	lastEpoch map[string]uint64

	// Adaptive-mode state: the advisor, plus the last verified round's
	// attribution and root span context, the evidence the advisor consumes.
	advisor  *adapt.Advisor
	lastAttr *collect.Attribution
	lastCtx  obs.SpanContext
}

// newSoakEnv boots the instrumented cluster: tracer, injector, kill plan,
// node daemons, coordinator, shadow model. cfg must already be defaulted and
// carry a layout.
func newSoakEnv(cfg SoakConfig) (*soakEnv, error) {
	layout := cfg.Layout
	e := &soakEnv{cfg: cfg, layout: layout, res: &SoakResult{}, lastEpoch: map[string]uint64{}}

	// The run's black box is the tracer's ring, where every RPC and fired
	// fault is a span, so a failure dumps its immediate past.
	e.tr = cfg.Tracer
	e.ownTracer = e.tr == nil
	if e.ownTracer {
		e.tr = obs.NewTracer(1 << 15)
	}

	e.inj = chaos.New(cfg.Seed, cfg.Chaos)
	e.inj.SetTracer(e.tr)
	e.inj.Pause() // probabilistic injection only runs inside checkpoint windows
	if cfg.Registry != nil {
		cfg.Registry.MountCounterSet("dvdc_chaos_faults_total", "kind", e.inj.Counters())
	}

	if cfg.KillMTBF > 0 {
		var err error
		e.kills, err = chaos.PlanPoissonKills(layout.Nodes, layout.Tolerance, cfg.Rounds, cfg.KillMTBF, DefaultSoakRoundSeconds, cfg.Seed)
		if err != nil {
			return nil, err
		}
	}
	// The harness's own decisions (which pair to arm, which kind, transient
	// partitions) come from a dedicated stream so they never perturb the
	// injector's or the workloads' streams.
	e.harness = rand.New(rand.NewSource(cfg.Seed ^ 0x5eed50a4c0ffee))

	cl, err := startCluster(layout, cfg.Pages, cfg.PageSize, cfg.Seed,
		func(int) string { return "127.0.0.1:0" },
		func(n int) NodeOptions {
			return NodeOptions{Dialer: e.inj.Dialer(n), Listen: e.inj.ListenFunc(n), RPCTimeout: cfg.RPCTimeout, Tracer: e.tr, Registry: cfg.Registry}
		})
	if err != nil {
		return nil, err
	}
	e.cl = cl
	for n, d := range cl.nodes {
		e.inj.Register(n, d.Addr())
	}
	cl.SetObserver(e.tr, cfg.Registry)
	cl.SetPostmortemDir(cfg.PostmortemDir)
	cl.SetRPCTimeout(cfg.RPCTimeout)
	cl.SetChunkSize(cfg.ChunkSize)
	cl.SetWorkload(cfg.Workload)
	cl.SetDedup(cfg.Dedup)
	cl.SetDialer(e.inj.Dialer(chaos.Coordinator))
	if err := cl.Setup(); err != nil {
		e.cl.Close()
		return nil, err
	}
	e.shadow, err = NewShadowWith(layout, cfg.Pages, cfg.PageSize, cfg.Seed, cfg.Workload)
	if err != nil {
		e.cl.Close()
		return nil, err
	}
	e.outliers = collect.NewOutlierTracker()
	e.outliers.SetRegistry(cfg.Registry)
	if cfg.Adaptive {
		e.advisor = adapt.New(adapt.Config{
			Tracer:   e.tr,
			Registry: cfg.Registry,
			Hooks: adapt.Hooks{
				EvacuateKeepers: func(peer string) (int, error) {
					id, err := laneNodeID(peer)
					if err != nil {
						return 0, err
					}
					plan, err := e.cl.EvacuateKeepers(id)
					if err != nil {
						return 0, err
					}
					// Keeper evacuations are pure RehomeParity plans: the
					// shadow model tracks VM images, not parity homes, so
					// nothing needs mirroring and bit-identity is untouched.
					return len(plan.Steps), nil
				},
			},
			// Soak rounds cover DefaultSoakRoundSeconds of virtual exposure
			// each; the advisor's thresholds are multiples of it, so its
			// half-life of a few rounds tracks regime changes within one run.
			// The interval it retunes lives in the advisor; roundSteps reads
			// it.
			IntervalSeconds: DefaultSoakRoundSeconds,
		})
	} else if cfg.Registry != nil {
		// Static runs still export the tuning state (satellite gauges): the
		// interval simply never moves. Adaptive runs get this gauge from the
		// advisor instead.
		cfg.Registry.GaugeFunc("dvdc_checkpoint_interval_seconds", func() float64 { return DefaultSoakRoundSeconds })
	}
	return e, nil
}

// laneNodeID maps a telemetry lane name ("node3") back to the node index —
// the advisor speaks lanes, the coordinator speaks indices.
func laneNodeID(lane string) (int, error) {
	var id int
	if _, err := fmt.Sscanf(lane, "node%d", &id); err != nil || id < 0 {
		return 0, fmt.Errorf("soak: lane %q is not a node lane", lane)
	}
	return id, nil
}

// roundSteps scales the per-round workload steps by the advisor's current
// checkpoint interval: the interval_retune rule moves how much work runs
// between checkpoints on the virtual clock, which is exactly what
// StepsPerRound models. Static soaks always get cfg.StepsPerRound.
func (e *soakEnv) roundSteps() uint64 {
	steps := e.cfg.StepsPerRound
	if e.advisor == nil {
		return steps
	}
	iv := e.advisor.Interval()
	if iv <= 0 {
		return steps
	}
	scaled := uint64(float64(steps)*iv/DefaultSoakRoundSeconds + 0.5)
	return max(1, scaled)
}

// stepAdapt feeds the advisor one verified round's telemetry and records its
// decisions on the round. Runs after verification and the health tick, on a
// quiesced cluster — under the service driver every request is terminal and
// the reconciler idle — so an applied placement or tuning change lands
// between rounds, never mid-protocol.
func (e *soakEnv) stepAdapt(rr *RoundRecord) {
	if e.advisor == nil {
		return
	}
	outliers := e.outliers.Outliers()
	evidence := map[string]string{}
	for _, p := range outliers {
		evidence["p99 "+p] = e.outliers.P99(p).String()
	}
	if med := e.outliers.ClusterMedian(); med > 0 {
		evidence["cluster_median"] = med.String()
	}
	var firing []string
	if e.cfg.Health != nil {
		firing = e.cfg.Health.Firing()
	}
	o := adapt.Observation{
		Round:    rr.Round,
		Ctx:      e.lastCtx,
		Attr:     e.lastAttr,
		Outliers: outliers,
		Evidence: evidence,
		Failures: len(rr.Kills) + len(rr.DeadDuring),
		Elapsed:  DefaultSoakRoundSeconds,
		Firing:   firing,
	}
	rr.Adapt = e.advisor.Step(o)
}

// fail dumps a postmortem bundle whose meta names the run and the invariant
// violation, and renders the canonical soak error.
func (e *soakEnv) fail(round int, format string, args ...interface{}) (*SoakResult, error) {
	msg := fmt.Sprintf(format, args...)
	obs.Dump(e.cfg.PostmortemDir, "soak-invariant", e.tr, e.cfg.Registry, map[string]interface{}{ //nolint:errcheck // never turn a postmortem into a second failure
		"seed": e.cfg.Seed, "rounds": e.cfg.Rounds, "nodes": e.layout.Nodes,
		"violation": fmt.Sprintf("round %d: %s", round, msg),
	})
	return e.res, fmt.Errorf("soak[seed %d, round %d]: %s", e.cfg.Seed, round, msg)
}

// checkTrace asserts one checkpoint's span tree is closed: the collector's
// merged-tree verifier demands exactly one root and every span's parent
// recorded in the same trace. Handlers abandoned by an RPC timeout can
// record their spans a beat after the caller returned, so a transient
// orphan is retried briefly before it counts as a violation. On success
// the verified tree is returned for straggler attribution.
func (e *soakEnv) checkTrace(traceID uint64) (*collect.Tree, error) {
	if traceID == 0 {
		return nil, fmt.Errorf("trace: round recorded no trace id")
	}
	var lastErr error
	deadline := time.Now().Add(2 * time.Second)
	for {
		spans := e.tr.TraceSpans(traceID)
		var tree *collect.Tree
		if len(spans) == 0 {
			lastErr = fmt.Errorf("trace %016x: no spans recorded", traceID)
		} else {
			tree = collect.BuildTree(spans)
			lastErr = tree.Verify()
		}
		if lastErr == nil {
			return tree, nil
		}
		if !time.Now().Before(deadline) {
			return nil, lastErr
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// applySlowPlan arms or heals the standing slow-node delay at the boundary
// rounds of the configured window (r is the 0-based round index).
func (e *soakEnv) applySlowPlan(r int) {
	cfg := e.cfg
	if cfg.SlowDelay <= 0 {
		return
	}
	if r == cfg.SlowFrom {
		e.inj.SlowNode(cfg.SlowNode, cfg.SlowDelay)
	}
	if r == cfg.SlowUntil && r > 0 { // SlowUntil 0 never heals
		e.inj.HealNode(cfg.SlowNode)
	}
}

// armRoundFaults arms this round's one-shot faults (coordinator pairs, an
// optional transient partition, chunk-frame faults) from the harness stream,
// identically under both drivers. Returns the partitioned pair ({-1,-1} if
// none); the caller heals it after the checkpoint window.
func (e *soakEnv) armRoundFaults(victims []int) [2]int {
	cfg, layout := e.cfg, e.layout
	isVictim := map[int]bool{}
	for _, v := range victims {
		isVictim[v] = true
	}
	armedKinds := []chaos.Kind{chaos.Drop, chaos.Corrupt, chaos.Delay}
	// Arm this round's one-shot faults on coordinator pairs to distinct
	// live nodes; the prepare fanout guarantees each fires this round.
	if cfg.ArmPerRound > 0 {
		var targets []int
		for n := 0; n < layout.Nodes; n++ {
			if !isVictim[n] {
				targets = append(targets, n)
			}
		}
		e.harness.Shuffle(len(targets), func(i, j int) { targets[i], targets[j] = targets[j], targets[i] })
		for i := 0; i < cfg.ArmPerRound && i < len(targets); i++ {
			e.inj.Arm(chaos.Pair{Src: chaos.Coordinator, Dst: targets[i]},
				armedKinds[e.harness.Intn(len(armedKinds))])
		}
	}
	// Occasionally sever one node pair for the duration of the checkpoint.
	partitioned := [2]int{-1, -1}
	if len(victims) == 0 && cfg.PPartition > 0 && layout.Nodes >= 2 && e.harness.Float64() < cfg.PPartition {
		a := e.harness.Intn(layout.Nodes)
		b := e.harness.Intn(layout.Nodes - 1)
		if b >= a {
			b++
		}
		partitioned = [2]int{a, b}
		e.inj.PartitionPair(a, b)
	}
	// Chunk-stream faults: one-shot drop/corrupt aimed at MsgDeltaChunk
	// frames on member-host -> parity-node edges, so the fault lands on an
	// individual data-path chunk mid-prepare and the keeper-side stream
	// dedup plus the node pools' retries must absorb it. Armed after the
	// partition choice: an edge whose traffic is severed (or whose endpoint
	// is a scheduled victim) would never consume its fault and trip the
	// consumption invariant. Self-hosted parity never crosses the wire, so
	// src == dst edges are skipped too. Delay is excluded — it would fire
	// without forcing the retry path this satellite is meant to exercise.
	if cfg.ChunkFaults > 0 {
		lay := e.cl.Layout()
		hostOf := make(map[string]int, len(lay.VMs))
		for _, v := range lay.VMs {
			hostOf[v.Name] = v.Node
		}
		seen := map[chaos.Pair]bool{}
		var edges []chaos.Pair
		for _, g := range lay.Groups {
			for _, m := range g.Members {
				src := hostOf[m]
				for _, p := range g.ParityNodes {
					if src == p || isVictim[src] || isVictim[p] {
						continue
					}
					if (src == partitioned[0] && p == partitioned[1]) ||
						(src == partitioned[1] && p == partitioned[0]) {
						continue
					}
					pr := chaos.Pair{Src: src, Dst: p}
					if !seen[pr] {
						seen[pr] = true
						edges = append(edges, pr)
					}
				}
			}
		}
		e.harness.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		chunkKinds := []chaos.Kind{chaos.Drop, chaos.Corrupt}
		for i := 0; i < cfg.ChunkFaults && i < len(edges); i++ {
			e.inj.ArmMsg(edges[i], chunkKinds[e.harness.Intn(len(chunkKinds))], wire.MsgDeltaChunk)
		}
	}
	return partitioned
}

// verifyRound runs the per-round invariant battery on a quiesced cluster and
// fills rr's straggler attribution. Any returned error is an invariant
// violation the caller turns into a soak failure.
func (e *soakEnv) verifyRound(round int, rr *RoundRecord) error {
	// A lost abort may have left staged captures behind; measuring must not
	// race the protocol.
	if err := e.cl.Quiesce(); err != nil {
		return fmt.Errorf("quiesce: %v", err)
	}
	states, err := e.cl.VMStates()
	if err != nil {
		return fmt.Errorf("fetch VM states: %v", err)
	}
	want := e.shadow.Checksums()
	if len(states) != len(want) {
		return fmt.Errorf("cluster reports %d VMs, shadow models %d", len(states), len(want))
	}
	for name, s := range states {
		if s.Checksum != want[name] {
			return fmt.Errorf("VM %q committed checksum %x diverged from shadow %x", name, s.Checksum, want[name])
		}
		if s.Epoch != e.cl.Epoch() {
			return fmt.Errorf("VM %q at epoch %d, coordinator at %d", name, s.Epoch, e.cl.Epoch())
		}
		if prev, ok := e.lastEpoch[name]; ok && s.Epoch < prev {
			return fmt.Errorf("VM %q epoch regressed %d -> %d", name, prev, s.Epoch)
		}
		e.lastEpoch[name] = s.Epoch
	}
	if e.cl.Epoch() != e.shadow.Epoch() {
		return fmt.Errorf("coordinator epoch %d, shadow epoch %d", e.cl.Epoch(), e.shadow.Epoch())
	}
	if p := e.cl.pendingRecovery(); len(p) > 0 {
		return fmt.Errorf("nodes %v still pending recovery", p)
	}
	if err := e.cl.VerifyParity(); err != nil {
		return err
	}
	if e.inj.ArmedPending() != 0 {
		return fmt.Errorf("%d armed faults never fired", e.inj.ArmedPending())
	}
	// Retry reconciliation: each armed drop/corrupt on a coordinator pair
	// fails exactly one in-flight call, which the pool must absorb with a
	// retry. (Node-to-node faults retry inside the node pools and are
	// invisible to coordinator stats; hence a lower bound, not equality.)
	firedDisruptive := 0
	for _, f := range e.inj.Log() {
		if f.Round == round && f.Armed && f.Pair.Src == chaos.Coordinator &&
			(f.Kind == chaos.Drop || f.Kind == chaos.Corrupt) {
			firedDisruptive++
		}
	}
	if int(rr.RPCRetries) < firedDisruptive {
		return fmt.Errorf("RPC retries %d < %d armed coordinator-pair faults", rr.RPCRetries, firedDisruptive)
	}
	tree, err := e.checkTrace(e.cl.RoundStats().TraceID)
	if err != nil {
		return err
	}
	// Straggler attribution over the verified tree: who this round's
	// wall-clock waited on, exported per round, plus the rolling per-peer
	// latency windows behind the outlier gauges. Timing-dependent, so the
	// record fields stay out of the round digest. The attribution and the
	// round's root span context are kept for the adaptive advisor, which
	// nests its decision spans under the round trace.
	e.lastAttr = collect.Attribute(tree)
	if e.lastAttr != nil {
		e.lastAttr.Export(e.cfg.Registry)
		rr.Straggler = e.lastAttr.Straggler
		rr.Wall = e.lastAttr.Wall
	}
	e.lastCtx = obs.SpanContext{}
	if root := tree.Root(); root != nil {
		e.lastCtx = obs.SpanContext{Trace: root.Trace, Span: root.ID}
	}
	// Data spans only: a member's control rpc includes its own downstream
	// ship stalls, so a slow keeper would smear into every member's window
	// and never cross the outlier factor (see ObserveDataSpans).
	e.outliers.ObserveDataSpans(tree.Spans)
	return nil
}

// finish runs the end-of-soak checks (fault schedule consumed, dedup skip
// exercised, liveness floor, span leaks) and assembles the result.
func (e *soakEnv) finish() (*SoakResult, error) {
	cfg := e.cfg
	e.res.FaultLog = e.inj.Log()
	e.res.Epoch = e.cl.Epoch()
	e.res.Counters = e.inj.Counters().Snapshot()
	var err error
	e.res.Checksums, err = e.cl.Checksums()
	if err != nil {
		return e.res, err
	}
	// A dedup soak where no capture ever compared a dirty page verified
	// nothing about the skip.
	if cfg.Dedup {
		var sum ShipCounts
		for _, rr := range e.res.Rounds {
			sum.Add(rr.ShipCounts)
		}
		if sum.DedupHits+sum.DedupMisses == 0 {
			return e.fail(cfg.Rounds, "dedup configured but no round compared a dirty page with its committed image")
		}
		if cfg.Workload == WorkloadRewrite && sum.DedupHits == 0 {
			return e.fail(cfg.Rounds, "dedup under the rewrite workload skipped zero unchanged pages")
		}
	}
	// Liveness floor: chaos may abort rounds, but the protocol must keep
	// committing — a soak that never advances is a silent deadlock.
	if e.res.Epoch < uint64(cfg.Rounds)/2 {
		return e.fail(cfg.Rounds, "only %d epochs committed across %d rounds", e.res.Epoch, cfg.Rounds)
	}
	// Span-leak check (own tracer only; a shared tracer may carry the
	// caller's spans): abandoned handlers get the RPC deadline to drain.
	if e.ownTracer {
		deadline := time.Now().Add(cfg.RPCTimeout + 2*time.Second)
		for e.tr.OpenSpans() != 0 && time.Now().Before(deadline) {
			time.Sleep(20 * time.Millisecond)
		}
		if n := e.tr.OpenSpans(); n != 0 {
			return e.fail(cfg.Rounds, "%d spans still open after soak", n)
		}
	}
	return e.res, nil
}

// RunSoak executes the soak, holding every round to verifyRound's invariants:
// committed images equal the Shadow's, epochs agree and never regress, no
// node is left pending recovery, members and keepers match the layout and
// the parity the committed images, every armed
// fault fired and forced its retries, and the round's span tree is whole.
//
// Every round is step → arm → kill → drive → account → verify → health tick
// → adapt. Only the drive differs: the direct driver calls the soak's
// executor itself, reproducibly by seed; with cfg.Service the control plane's
// reconciler calls it, after timing-dependent backoffs.
//
// A violation returns an error naming the round and the seed, beside the
// partial SoakResult.
func RunSoak(cfg SoakConfig) (*SoakResult, error) {
	cfg = cfg.withDefaults()
	if cfg.Layout == nil {
		return nil, fmt.Errorf("soak: nil layout")
	}
	if cfg.ControllerRestarts > 0 && !cfg.Service {
		return nil, fmt.Errorf("soak: ControllerRestarts requires Service mode")
	}
	if cfg.ControllerRestarts > max(cfg.Rounds-2, 0) {
		return nil, fmt.Errorf("soak: ControllerRestarts %d needs at least %d rounds, have %d (none on the first or last round)",
			cfg.ControllerRestarts, cfg.ControllerRestarts+2, cfg.Rounds)
	}
	if cfg.SlowDelay > 0 && (cfg.SlowNode < 0 || cfg.SlowNode >= cfg.Layout.Nodes) || cfg.SlowUntil > 0 && cfg.SlowUntil <= cfg.SlowFrom {
		return nil, fmt.Errorf("soak: slow plan needs 0 <= SlowNode < %d and SlowUntil 0 or past SlowFrom, got SlowNode %d, SlowFrom %d, SlowUntil %d", cfg.Layout.Nodes, cfg.SlowNode, cfg.SlowFrom, cfg.SlowUntil)
	}
	e, err := newSoakEnv(cfg)
	if err != nil {
		return nil, err
	}
	defer e.cl.Close()
	// A replayed state dir can run a request before round 1: its counts land
	// in a record no round keeps.
	exec := &soakExec{e: e, rec: &RoundRecord{}}
	drive := exec.driveDirect
	if cfg.Service {
		sd, err := newSoakService(exec)
		if err != nil {
			return nil, err
		}
		defer sd.close()
		drive = sd.drive
	}

	for r := 0; r < cfg.Rounds; r++ {
		round := e.inj.NextRound()
		rr := RoundRecord{Round: round}
		e.applySlowPlan(r)
		if e.kills != nil {
			rr.Kills = e.kills.Victims(r)
		}

		// Workload phase, fault-free and driven by the harness: a lost or
		// duplicated step RPC — or a retried service attempt re-stepping —
		// would desynchronize the real workload streams from the shadow's,
		// turning model noise into false invariant violations (see DESIGN.md).
		if e.inj.ArmedPending() != 0 {
			return e.fail(round, "%d armed faults never fired", e.inj.ArmedPending())
		}
		steps := e.roundSteps()
		if err := e.cl.Step(steps); err != nil {
			return e.fail(round, "step: %v", err)
		}
		e.shadow.Step(steps)

		// Arm, then kill: victims drop dead before the checkpoint, so the
		// round exercises prepare-failure abort (or, if timing conspires, a
		// mid-commit death) followed by full recovery.
		exec.beginRound(&rr, e.armRoundFaults(rr.Kills))

		retriesBefore := e.cl.totalRetries()
		if err := drive(r, &rr); err != nil {
			return e.fail(round, "%v", err)
		}
		if err := exec.account(); err != nil {
			return e.fail(round, "%v", err)
		}
		rr.RPCRetries = e.cl.totalRetries() - retriesBefore

		if err := e.verifyRound(round, &rr); err != nil {
			return e.fail(round, "%v", err)
		}
		if cfg.Health != nil {
			cfg.Health.Tick() // on quiesced, fully recorded metrics
		}
		e.stepAdapt(&rr)
		rr.Epoch = e.cl.Epoch()
		e.res.Rounds = append(e.res.Rounds, rr)
		if cfg.RoundInterval > 0 && r < cfg.Rounds-1 {
			time.Sleep(cfg.RoundInterval)
		}
	}

	return e.finish()
}
