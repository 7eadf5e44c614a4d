package runtime

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// commitRetryBackoff is the base delay between commit attempts on one node;
// the shared concurrency and failure-handling defaults live in defaults.go.
const commitRetryBackoff = 10 * time.Millisecond

// Coordinator drives a set of node daemons through the DVDC protocol:
// initial configuration, workload execution, two-phase checkpoint rounds,
// and recovery after a node death. It owns the live cluster.Layout and keeps
// it in sync with what the nodes are doing.
//
// Control-plane traffic fans out: every phase (setup, step, prepare, commit,
// checksum, parity refresh) contacts all nodes concurrently over per-peer
// connection pools, bounded by the fan-out width, and every RPC carries an
// I/O deadline so a hung node surfaces as a timeout instead of wedging the
// cluster. Protocol entry points (Setup, Step, Checkpoint, Quiesce,
// RecoverNodes, Repair, Rebalance) serialize on an internal round mutex —
// one protocol operation at a time, concurrent callers queue — while each
// round is internally parallel. Read paths (Epoch, RoundStats, Checksums,
// VMStates) are safe to call from other goroutines at any time.
type Coordinator struct {
	roundMu sync.Mutex // serializes protocol operations (one round at a time)

	mu      sync.Mutex // guards pools, dead, pending, retiredRetries
	pools   map[int]*transport.Pool
	dead    map[int]bool
	pending map[int]bool // dead, and no recovery of them has succeeded yet

	layout         *cluster.Layout
	addrs          map[int]string
	pages          int
	pageSize       int
	epoch          atomic.Uint64
	seedBase       int64
	attempts       uint64 // round attempts begun (CheckpointIn); guarded by roundMu
	chunkSize      int    // chunk payload bytes; 0 = wire.DefaultChunkSize
	workload       string // workload kind for every VM ("" = uniform)
	dedup          bool   // nodes skip dirty pages equal to their committed image
	rpcTimeout     time.Duration
	fanoutW        int   // DefaultFanout; fixed at construction
	retiredRetries int64 // retry counts of pools already closed
	dialer         transport.DialFunc
	tracer         *obs.Tracer
	registry       *obs.Registry
	recorder       *obs.FlightRecorder

	statsMu   sync.Mutex
	lastRound RoundStats
}

// NewCoordinator wires a layout to node addresses. addrs must cover every
// node index in the layout.
func NewCoordinator(layout *cluster.Layout, addrs map[int]string, pages, pageSize int, seed int64) (*Coordinator, error) {
	if layout == nil {
		return nil, fmt.Errorf("runtime: nil layout")
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	for n := 0; n < layout.Nodes; n++ {
		if _, ok := addrs[n]; !ok {
			return nil, fmt.Errorf("runtime: no address for node %d", n)
		}
	}
	if pages <= 0 || pageSize <= 0 {
		return nil, fmt.Errorf("runtime: bad geometry %dx%d", pages, pageSize)
	}
	return &Coordinator{
		layout:     layout,
		addrs:      addrs,
		pools:      map[int]*transport.Pool{},
		dead:       map[int]bool{},
		pending:    map[int]bool{},
		pages:      pages,
		pageSize:   pageSize,
		seedBase:   seed,
		rpcTimeout: DefaultRPCTimeout,
		fanoutW:    DefaultFanout,
	}, nil
}

// SetChunkSize sets the chunk payload size in bytes; 0 (the default) means
// wire.DefaultChunkSize. Nodes reject a negative size, so Setup fails on one.
// Call before Setup: the setting rides the node configuration, and it holds
// for the cluster's life (Repair's reconfigurations carry it too).
func (c *Coordinator) SetChunkSize(n int) { c.chunkSize = n }

// SetWorkload selects the synthetic workload kind every VM runs ("" =
// uniform; see WorkloadUniform, WorkloadRewrite). Call before Setup — the
// kind rides each VMConfig, and the Shadow model must be built with the same
// kind to stay bit-identical.
func (c *Coordinator) SetWorkload(kind string) { c.workload = kind }

// SetDedup makes every node's capture skip dirty pages that equal the
// member's committed image (NodeConfig.Dedup). Call before Setup (the flag
// rides the node configuration).
func (c *Coordinator) SetDedup(on bool) { c.dedup = on }

// SetRPCTimeout bounds every coordinator RPC (0 disables deadlines). Applies
// to connections opened after the call, so set it before the first round.
func (c *Coordinator) SetRPCTimeout(d time.Duration) {
	c.mu.Lock()
	c.rpcTimeout = d
	c.mu.Unlock()
}

// SetDialer substitutes the raw stream opener used for every subsequent
// coordinator-to-node connection (nil restores plain TCP). Fault-injection
// layers (internal/chaos) hook in here; like SetRPCTimeout it only affects
// pools created after the call, so set it before the first round.
func (c *Coordinator) SetDialer(d transport.DialFunc) {
	c.mu.Lock()
	c.dialer = d
	c.mu.Unlock()
}

// SetObserver attaches a span tracer and metrics registry (either may be
// nil). Checkpoint rounds, recoveries, and rebalances open root spans whose
// trace ids ride every RPC of the round; the registry gets per-phase duration
// histograms, round counters, and each peer pool's health series. Like
// SetDialer, pool-level instrumentation only reaches pools created after the
// call, so attach before the first round.
func (c *Coordinator) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	c.mu.Lock()
	c.tracer = tr
	c.registry = reg
	c.mu.Unlock()
}

// SetFlightRecorder attaches a black-box flight recorder (may be nil). Every
// pool RPC outcome lands in its bounded log, and a PartialCommitError — the
// protocol's "a node died mid-commit" failure — auto-dumps a postmortem
// bundle. Like SetObserver, pool-level wiring only reaches pools created
// after the call, so attach before the first round.
func (c *Coordinator) SetFlightRecorder(rec *obs.FlightRecorder) {
	c.mu.Lock()
	c.recorder = rec
	c.mu.Unlock()
}

// NodeStats fetches a node's protocol counters.
func (c *Coordinator) NodeStats(node int) (NodeStats, error) {
	resp, err := c.call(node, &wire.Message{Type: wire.MsgStats})
	if err != nil {
		return NodeStats{}, err
	}
	var st NodeStats
	if err := decodeJSON(resp.Text, &st); err != nil {
		return NodeStats{}, err
	}
	return st, nil
}

// Layout exposes the live layout.
func (c *Coordinator) Layout() *cluster.Layout { return c.layout }

// Epoch returns the last committed checkpoint epoch. Safe to call from any
// goroutine, including while a round is in flight on another.
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// RoundStats returns the stats of the most recent checkpoint round (and
// recovery, if one has run).
func (c *Coordinator) RoundStats() RoundStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.lastRound
}

// pool returns (lazily creating) the connection pool for an alive node.
func (c *Coordinator) pool(node int) (*transport.Pool, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead[node] {
		return nil, fmt.Errorf("runtime: node %d is marked dead", node)
	}
	if p, ok := c.pools[node]; ok {
		return p, nil
	}
	p := transport.NewPool(c.addrs[node], transport.PoolOptions{
		CallTimeout: c.rpcTimeout,
		Dialer:      c.dialer,
		Peer:        fmt.Sprintf("node%d", node),
		Tracer:      c.tracer,
		Registry:    c.registry,
		Recorder:    c.recorder,
	})
	c.pools[node] = p
	return p, nil
}

// observePhase lands one phase duration in the attached registry's per-phase
// histogram, the one record of phase wall clock (dvdcctl renders it).
func (c *Coordinator) observePhase(name string, d time.Duration) {
	c.mu.Lock()
	reg := c.registry
	c.mu.Unlock()
	if reg != nil {
		reg.Histogram("dvdc_round_phase_seconds", obs.LatencyBuckets(), "phase", name).Observe(d.Seconds())
	}
}

// call sends one RPC to a node over its pool. The pool re-dials and retries
// once when a cached connection went stale (the daemon restarted on the same
// address), and enforces the per-call deadline. Safe for concurrent use.
func (c *Coordinator) call(node int, msg *wire.Message) (*wire.Message, error) {
	p, err := c.pool(node)
	if err != nil {
		return nil, err
	}
	return p.Call(msg)
}

// markDead declares a node dead: its pool is closed and no further calls
// reach it. pendingRecovery tags nodes that still need RecoverNodes: the
// commit phase lost them, or a recovery of them has not succeeded yet.
func (c *Coordinator) markDead(node int, pendingRecovery bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.dead[node] = true
	if pendingRecovery {
		c.pending[node] = true
	}
	if p, ok := c.pools[node]; ok {
		c.retiredRetries += p.Retries()
		p.Close()
		delete(c.pools, node)
	}
}

// totalRetries sums transport retries across live and retired pools.
func (c *Coordinator) totalRetries() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	t := c.retiredRetries
	for _, p := range c.pools {
		t += p.Retries()
	}
	return t
}

// aliveNodes lists nodes not marked dead, ascending.
func (c *Coordinator) aliveNodes() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []int
	for n := 0; n < c.layout.Nodes; n++ {
		if !c.dead[n] {
			out = append(out, n)
		}
	}
	return out
}

// fanout sends one request to each node concurrently (bounded by the
// fan-out width) and feeds each reply to handle, in node order. Every node
// is attempted even after a failure, and handle runs for every successful
// reply — so a caller can learn which nodes succeeded even when the phase as
// a whole fails. The first error in node order is returned, wrapped with op.
// Built messages are stamped with ctx (every build call site allocates a
// fresh message, so stamping in place is safe); a zero ctx leaves the phase
// untraced.
func (c *Coordinator) fanout(ctx obs.SpanContext, op string, nodes []int, build func(node int) *wire.Message, handle func(node int, resp *wire.Message) error) error {
	resps := make([]*wire.Message, len(nodes))
	errs := make([]error, len(nodes))
	parallelDo(len(nodes), c.fanoutW, func(i int) error { //nolint:errcheck // errors land in errs
		msg := build(nodes[i])
		if msg == nil {
			return nil
		}
		if ctx.Valid() && msg.Trace == 0 {
			msg.Trace, msg.Span = ctx.Trace, ctx.Span
		}
		resps[i], errs[i] = c.call(nodes[i], msg)
		return nil
	})
	var first error
	for i, node := range nodes {
		if errs[i] != nil {
			if first == nil {
				first = fmt.Errorf("runtime: %s on node %d: %w", op, node, errs[i])
			}
			continue
		}
		if resps[i] == nil || handle == nil {
			continue
		}
		if err := handle(node, resps[i]); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// vmSeed derives a deterministic workload seed per VM.
func (c *Coordinator) vmSeed(name string) int64 {
	return vmWorkloadSeed(c.seedBase, name)
}

// vmWorkloadSeed is the coordinator's per-VM workload seed derivation,
// shared with the Shadow model so both sides drive identical workload
// streams from the same base seed.
func vmWorkloadSeed(base int64, name string) int64 {
	h := base
	for _, r := range name {
		h = h*131 + int64(r)
	}
	return h
}

// vmConfig renders the current VMConfig for a VM name.
func (c *Coordinator) vmConfig(v cluster.VMPlacement) VMConfig {
	g := c.layout.Groups[v.Group]
	return VMConfig{
		Name:        v.Name,
		Pages:       c.pages,
		PageSize:    c.pageSize,
		Group:       v.Group,
		ParityNodes: append([]int(nil), g.ParityNodes...),
		Seed:        c.vmSeed(v.Name),
		Workload:    c.workload,
	}
}

// nodeConfig renders the full initial assignment for one node.
func (c *Coordinator) nodeConfig(n int) NodeConfig {
	cfg := NodeConfig{NodeID: n, Peers: c.addrs, ChunkSize: c.chunkSize, Dedup: c.dedup}
	for _, v := range c.layout.VMs {
		if v.Node == n {
			cfg.VMs = append(cfg.VMs, c.vmConfig(v))
		}
	}
	for _, g := range c.layout.Groups {
		for i, pn := range g.ParityNodes {
			if pn == n {
				cfg.Keepers = append(cfg.Keepers, KeeperConfig{
					Group: g.Index, ParityIdx: i, Tolerance: c.layout.Tolerance,
					Members: append([]string(nil), g.Members...), Pages: c.pages, PageSize: c.pageSize,
				})
			}
		}
	}
	return cfg
}

// Setup pushes the initial configuration to every node, concurrently.
func (c *Coordinator) Setup() error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	nodes := make([]int, c.layout.Nodes)
	msgs := make([]*wire.Message, c.layout.Nodes)
	for n := 0; n < c.layout.Nodes; n++ {
		nodes[n] = n
		text, err := encodeJSON(c.nodeConfig(n))
		if err != nil {
			return err
		}
		msgs[n] = &wire.Message{Type: wire.MsgConfigure, Text: text}
	}
	return c.fanout(obs.SpanContext{}, "configure", nodes,
		func(n int) *wire.Message { return msgs[n] },
		func(n int, resp *wire.Message) error {
			if resp.Type != wire.MsgConfigureOK {
				return fmt.Errorf("runtime: node %d replied %v to configure", n, resp.Type)
			}
			return nil
		})
}

// Step runs the synthetic workload n steps on every alive node's VMs,
// concurrently across nodes.
func (c *Coordinator) Step(n uint64) error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	return c.fanout(obs.SpanContext{}, "step", c.aliveNodes(),
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgStep, Arg: n} },
		nil)
}

// Checkpoint executes one two-phase checkpoint round: PREPARE on every alive
// node in parallel (each captures deltas and ships them to parity peers),
// then COMMIT in parallel.
//
// Failure semantics, phase by phase:
//   - If any prepare fails, the round is aborted on every node that
//     prepared and the error returned; the cluster stays at the previous
//     committed epoch.
//   - Once the commit phase starts, the round always completes: commit
//     cannot be undone after any node has folded its staged deltas, so the
//     epoch advances. A node whose commit keeps failing through the retry
//     budget is declared dead and the error returned is a
//     *PartialCommitError naming it; run RecoverNodes over those nodes to
//     restore redundancy. This keeps every reachable node's notion of the
//     committed epoch in sync — there is no state in which half the cluster
//     committed an epoch the coordinator disowned.
func (c *Coordinator) Checkpoint() error { return c.CheckpointIn(obs.SpanContext{}) }

// CheckpointIn is Checkpoint with a parent span context: the round's root
// span joins the caller's trace (the service reconciler passes its reconcile
// span here so the whole round tree hangs under the attempt that drove it).
// A zero context roots a fresh trace, which is what Checkpoint does.
//
// Every call is a new round attempt, numbered in the prepare and abort
// messages' Arg: the retry of an aborted epoch renders its deltas anew, and a
// keeper must not take a batch of the aborted render for one of the retry's.
func (c *Coordinator) CheckpointIn(parent obs.SpanContext) error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	c.attempts++
	attempt := c.attempts
	next := c.epoch.Load() + 1
	alive := c.aliveNodes()
	stats := RoundStats{Epoch: next}
	retriesBefore := c.totalRetries()

	c.mu.Lock()
	tr := c.tracer
	c.mu.Unlock()
	root := tr.Start(parent, "round", "coord")
	root.SetAttr("epoch", fmt.Sprintf("%d", next))
	stats.TraceID = root.TraceID()

	// Phase 1: prepare everywhere.
	t0 := time.Now()
	prep := tr.Child(root.Context(), "prepare", "coord")
	prepErr := c.fanout(prep.ContextOr(obs.SpanContext{}), "prepare", alive,
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgPrepare, Epoch: next, Arg: attempt} },
		func(node int, resp *wire.Message) error {
			if resp.Type != wire.MsgPrepareOK {
				return fmt.Errorf("runtime: node %d replied %v to prepare", node, resp.Type)
			}
			var sc ShipCounts
			if err := decodeJSON(resp.Text, &sc); err != nil {
				return fmt.Errorf("runtime: node %d's prepare counts: %w", node, err)
			}
			stats.ShipCounts.Add(sc)
			return nil
		})
	prep.FinishErr(prepErr)
	stats.PrepareWall = time.Since(t0)
	c.observePhase("prepare", stats.PrepareWall)
	if prepErr != nil {
		// Abort every alive node, not only those whose prepare succeeded: a
		// node that captured some members and then failed mid-prepare holds
		// staged captures too, and a node that missed a previous abort (the
		// abort RPC itself was lost) would otherwise fail every future
		// prepare on its stale staged capture without ever being cleaned up —
		// a livelock. Abort is an idempotent no-op on a clean node, so
		// over-aborting is safe; best effort either way — a node that cannot
		// abort now is caught by the next prepare's staged-delta check.
		abort := tr.Child(root.Context(), "abort", "coord")
		c.fanout(abort.ContextOr(obs.SpanContext{}), "abort", alive, //nolint:errcheck
			func(int) *wire.Message { return &wire.Message{Type: wire.MsgAbort, Epoch: next, Arg: attempt} },
			nil)
		abort.Finish()
		stats.Aborted = true
		stats.RPCRetries = c.totalRetries() - retriesBefore
		c.recordRound(stats)
		root.FinishErr(prepErr)
		return prepErr
	}

	// Phase 2: commit everywhere, retrying per node; a persistently failing
	// committer is a node failure, not a round failure. Why each one was
	// declared dead — its last commit error — goes on the commit span and the
	// partial-commit note.
	var failedMu sync.Mutex
	var failed []int
	var why []string // "nodeN", last error, per failed node
	t1 := time.Now()
	commit := tr.Child(root.Context(), "commit", "coord")
	commitCtx := commit.ContextOr(obs.SpanContext{})
	parallelDo(len(alive), c.fanoutW, func(i int) error { //nolint:errcheck // failures collected in failed
		node := alive[i]
		var lastErr error
		for try := 0; try < DefaultCommitRetries; try++ {
			if try > 0 {
				time.Sleep(commitRetryBackoff << (try - 1))
			}
			resp, err := c.call(node, &wire.Message{Type: wire.MsgCommit, Epoch: next, Trace: commitCtx.Trace, Span: commitCtx.Span})
			if err == nil && resp.Type == wire.MsgCommitOK {
				return nil
			}
			if err == nil {
				err = fmt.Errorf("runtime: node %d replied %v to commit", node, resp.Type)
			}
			lastErr = err
		}
		key, reason := fmt.Sprintf("node%d", node), fmt.Sprint(lastErr)
		commit.SetAttr(key, reason)
		failedMu.Lock()
		failed = append(failed, node)
		why = append(why, key, reason)
		failedMu.Unlock()
		return nil
	})
	commit.Finish()
	stats.CommitWall = time.Since(t1)
	c.observePhase("commit", stats.CommitWall)
	stats.RPCRetries = c.totalRetries() - retriesBefore

	sort.Ints(failed)
	if len(failed) == len(alive) {
		// No node committed: the round effectively never entered commit.
		stats.Aborted = true
		c.recordRound(stats)
		err := fmt.Errorf("runtime: commit of epoch %d failed on every node", next)
		root.FinishErr(err)
		return err
	}
	c.epoch.Store(next)
	for _, node := range failed {
		c.markDead(node, true)
	}
	stats.DeadDuring = failed
	c.recordRound(stats)
	if len(failed) > 0 {
		err := &PartialCommitError{Epoch: next, Nodes: failed}
		root.FinishErr(err)
		// The black-box moment: a node died mid-commit. Dump the flight
		// recorder's pre-failure window before recovery traffic overwrites it.
		c.mu.Lock()
		rec := c.recorder
		c.mu.Unlock()
		rec.Note("partial-commit", append([]string{"epoch", fmt.Sprintf("%d", next), "nodes", fmt.Sprintf("%v", failed)}, why...)...)
		rec.AutoDump("partial-commit") //nolint:errcheck // never turn a postmortem into a second failure
		return err
	}
	root.Finish()
	return nil
}

func (c *Coordinator) recordRound(r RoundStats) {
	c.statsMu.Lock()
	c.lastRound = r
	c.statsMu.Unlock()
	c.mu.Lock()
	reg := c.registry
	c.mu.Unlock()
	if reg == nil {
		return
	}
	result := "committed"
	switch {
	case r.Aborted:
		result = "aborted"
	case len(r.DeadDuring) > 0:
		result = "partial"
	}
	reg.Counter("dvdc_rounds_total", "result", result).Inc()
	reg.Histogram("dvdc_round_shipped_bytes", obs.ByteBuckets()).Observe(float64(r.BytesShipped))
	// End-to-end round wall, the health engine's round_time_p99 signal. Phase
	// walls are already split out in dvdc_round_phase_seconds.
	reg.Histogram("dvdc_round_seconds", obs.LatencyBuckets()).Observe((r.PrepareWall + r.CommitWall).Seconds())
}

// Checksums fetches the committed-image checksum of every VM: VMStates
// without the epochs.
func (c *Coordinator) Checksums() (map[string]uint64, error) {
	states, err := c.VMStates()
	if err != nil {
		return nil, err
	}
	out := make(map[string]uint64, len(states))
	for name, s := range states {
		out[name] = s.Checksum
	}
	return out, nil
}

// Quiesce drops any staged-but-uncommitted captures left on alive nodes and
// returns every member's committed image to the last committed epoch. After
// an aborted round this is normally a no-op — the abort fanout already ran —
// but when the abort RPCs themselves were lost to a network fault, stale
// staged state survives until the next abort reaches the node. Chaos and
// soak harnesses call Quiesce before measuring committed state so a lost
// abort cannot masquerade as state divergence. Quiesce serializes with the
// other protocol operations: called while a round is in flight it blocks
// until the round finishes, rather than racing an abort against a commit. The
// abort names the latest round attempt begun.
func (c *Coordinator) Quiesce() error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	return c.fanout(obs.SpanContext{}, "abort", c.aliveNodes(),
		func(int) *wire.Message {
			return &wire.Message{Type: wire.MsgAbort, Epoch: c.epoch.Load() + 1, Arg: c.attempts}
		},
		nil)
}

// VMState is one VM's committed-state fingerprint as reported by its host.
type VMState struct {
	Checksum uint64 // FNV-1a of the committed image
	Epoch    uint64 // protocol epoch of the committed image
}

// VMStates fetches every VM's committed-image checksum and protocol epoch,
// concurrently. The soak harness checks these against its shadow model after
// every round: checksums must match and epochs must never regress.
func (c *Coordinator) VMStates() (map[string]VMState, error) {
	vms := c.layout.VMs
	states := make([]VMState, len(vms))
	if err := parallelDo(len(vms), c.fanoutW, func(i int) error {
		v := vms[i]
		resp, err := c.call(v.Node, &wire.Message{Type: wire.MsgChecksum, VM: v.Name})
		if err != nil {
			return fmt.Errorf("runtime: checksum %q on node %d: %w", v.Name, v.Node, err)
		}
		states[i] = VMState{Checksum: resp.Arg, Epoch: resp.Epoch}
		return nil
	}); err != nil {
		return nil, err
	}
	out := map[string]VMState{}
	for i, v := range vms {
		out[v.Name] = states[i]
	}
	return out, nil
}

// RecoverNode handles the death of a single node; see RecoverNodes.
func (c *Coordinator) RecoverNode(failed int) (*cluster.Plan, error) {
	return c.RecoverNodes(failed)
}

// RecoverNodes handles the simultaneous death of up to `tolerance` nodes:
// it plans recovery against the layout, rolls every surviving VM back to the
// committed epoch, and rebuilds each damaged group in one pass — the target
// of its first step pulls k surviving shards node-to-node once, computes every
// lost VM and parity block of the group, adopts its own and hands the others
// to their targets — then updates the layout. The coordinator only names
// sources and targets; no image byte crosses it. Groups share no VMs and no
// parity blocks (orthogonality), so they recover concurrently. The failed
// nodes must already be unreachable (or are about to be treated as such).
// Nodes the commit phase already declared dead (see PartialCommitError) may —
// and must — be passed here, and a recovery that fails may be run again.
func (c *Coordinator) RecoverNodes(failed ...int) (*cluster.Plan, error) {
	return c.RecoverNodesIn(obs.SpanContext{}, failed...)
}

// RecoverNodesIn is RecoverNodes with a parent span context, so a recovery
// driven by the service reconciler nests under its reconcile span. A zero
// context roots a fresh trace.
func (c *Coordinator) RecoverNodesIn(parent obs.SpanContext, failed ...int) (plan *cluster.Plan, err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	if len(failed) == 0 {
		return &cluster.Plan{}, nil
	}
	t0 := time.Now()
	c.mu.Lock()
	tr := c.tracer
	c.mu.Unlock()
	root := tr.Start(parent, "recovery", "coord")
	root.SetAttr("failed", fmt.Sprintf("%v", failed))
	defer func() { root.FinishErr(err) }()
	seen := map[int]bool{}
	c.mu.Lock()
	for _, f := range failed {
		if seen[f] {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: node %d named twice", f)
		}
		seen[f] = true
		if c.dead[f] && !c.pending[f] {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: node %d already recovered", f)
		}
	}
	c.mu.Unlock()
	// Plan against every node that is currently unavailable, not just the
	// new casualties, so targets are never chosen among the already-dead.
	plan, err = c.layout.PlanRecovery(c.downNodes(failed...)...)
	if err != nil {
		return nil, err
	}
	// The failed nodes stay pending until a recovery of them succeeds, so a
	// recovery that fails partway can be run again over the same nodes.
	for _, f := range failed {
		c.markDead(f, true)
	}

	// Roll every surviving node back to the committed epoch: guests resume from
	// the cut the restored VMs are rebuilt at (reconstruction reads committed
	// images, never live memory).
	rollback := tr.Child(root.Context(), "rollback", "coord")
	rbErr := c.fanout(rollback.ContextOr(obs.SpanContext{}), "rollback", c.aliveNodes(),
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgRollback} },
		nil)
	rollback.FinishErr(rbErr)
	if rbErr != nil {
		return nil, rbErr
	}
	if err := c.execute(root.ContextOr(obs.SpanContext{}), tr, plan); err != nil {
		return nil, err
	}
	c.observePhase("recovery", time.Since(t0))
	c.mu.Lock()
	for _, f := range failed {
		delete(c.pending, f)
	}
	c.mu.Unlock()
	return plan, nil
}

// downNodes lists, ascending, every node marked dead plus extra: the nodes a
// planner must never choose as a target.
func (c *Coordinator) downNodes(extra ...int) []int {
	c.mu.Lock()
	set := map[int]bool{}
	for n := range c.dead {
		set[n] = true
	}
	c.mu.Unlock()
	for _, n := range extra {
		set[n] = true
	}
	down := make([]int, 0, len(set))
	for n := range set {
		down = append(down, n)
	}
	sort.Ints(down)
	return down
}

// execute carries out a placement plan — a recovery's, a rebalance's or a
// keeper evacuation's — by one rule, and records in the layout exactly the
// steps that completed:
//
//  1. Each damaged group gets one rebuild request (rebuildGroup) carrying its
//     RehomeParity steps and the RestoreVM steps whose VM's host (Step.From)
//     is dead. Groups share no VM and no parity block (orthogonality), so
//     they rebuild concurrently, against the layout as it stands.
//  2. Each RestoreVM step whose VM's host is up is a move (move). Moves run
//     after the rebuilds, so no rebuild reads a VM a move has just evicted.
//  3. The completed steps are recorded with the layout's Apply: a step that
//     failed is not in the layout, whatever became of the others, so a retry
//     plans only what is still to do.
//  4. Every alive node learns the parity homes of the groups those steps
//     touched, whatever failed.
//
// The errors of all four are joined.
func (c *Coordinator) execute(ctx obs.SpanContext, tr *obs.Tracer, plan *cluster.Plan) error {
	var groups, moves []int
	rebuilds := map[int][]int{} // group -> indices of its rebuilt steps
	c.mu.Lock()
	for i, s := range plan.Steps {
		if s.Kind == cluster.RestoreVM && !c.dead[s.From] {
			moves = append(moves, i)
			continue
		}
		if rebuilds[s.Group] == nil {
			groups = append(groups, s.Group)
		}
		rebuilds[s.Group] = append(rebuilds[s.Group], i)
	}
	c.mu.Unlock()
	sort.Ints(groups)
	done := make([]bool, len(plan.Steps))
	rebuildErr := parallelDo(len(groups), c.fanoutW, func(i int) error {
		idx := rebuilds[groups[i]]
		steps := make([]cluster.Step, len(idx))
		for j, k := range idx {
			steps[j] = plan.Steps[k]
		}
		if err := c.rebuildGroup(ctx, tr, steps); err != nil {
			return err
		}
		for _, k := range idx {
			done[k] = true
		}
		return nil
	})
	moveErr := parallelDo(len(moves), c.fanoutW, func(i int) error {
		err := c.move(ctx, plan.Steps[moves[i]])
		done[moves[i]] = err == nil
		return err
	})
	var completed []cluster.Step
	touched := map[int]bool{}
	for i, s := range plan.Steps {
		if done[i] {
			completed = append(completed, s)
			touched[s.Group] = true
		}
	}
	return errors.Join(rebuildErr, moveErr,
		c.layout.Apply(&cluster.Plan{Down: plan.Down, Steps: completed, Degraded: plan.Degraded}),
		c.refreshParityPointers(ctx, touched))
}

// rebuildGroup rebuilds one damaged group through one rebuild request to its
// decoder, the target of the group's first step: every lost element with its
// target — a VM whose host is dead respawns with a fresh workload stream, a
// re-home step names its parity slot — the survivors' hosts and alive parity
// homes, and the committed epoch.
func (c *Coordinator) rebuildGroup(ctx obs.SpanContext, tr *obs.Tracer, steps []cluster.Step) (err error) {
	kind := "restore"
	if steps[0].Kind == cluster.RehomeParity {
		kind = "rehome"
	}
	span := tr.Child(ctx, fmt.Sprintf("%s g%d", kind, steps[0].Group), "coord")
	defer func() { span.FinishErr(err) }()
	rc := c.groupRebuild(steps[0].Group)
	for _, s := range steps {
		e := lostElement{Parity: s.Parity, Target: s.TargetNode}
		if s.Kind == cluster.RestoreVM {
			v, _ := c.layout.VM(s.VM)
			vc := c.vmConfig(v)
			vc.Seed = c.vmSeed(s.VM) + int64(rc.Epoch) + 1 // fresh workload stream after respawn
			e.VM = &vc
		}
		rc.Lost = append(rc.Lost, e)
	}
	return c.sendRebuild(span.ContextOr(obs.SpanContext{}), steps[0].TargetNode, rc)
}

// move carries out a RestoreVM step whose VM's host is up, install then
// evict: the target pulls the committed image from the host (the VM is
// quiescent right after a commit, so that image is the whole VM) and only
// once it has adopted the VM is the old host told to drop its copy. A move
// that fails or is refused at either step leaves the VM where it was, and the
// target holds no copy.
func (c *Coordinator) move(ctx obs.SpanContext, s cluster.Step) error {
	v, _ := c.layout.VM(s.VM)
	vc := c.vmConfig(v)
	vc.Seed = c.vmSeed(s.VM) + int64(c.epoch.Load()) + 7919
	rc := c.groupRebuild(v.Group)
	rc.Survivors, rc.ParityPeers, rc.From = nil, nil, &v.Node
	rc.Lost = []lostElement{{VM: &vc, Target: s.TargetNode}}
	if err := c.sendRebuild(ctx, s.TargetNode, rc); err != nil {
		return err
	}
	evict := func(node int) error {
		_, err := c.call(node, &wire.Message{Type: wire.MsgEvict, VM: s.VM, Trace: ctx.Trace, Span: ctx.Span})
		return err
	}
	if err := evict(v.Node); err != nil {
		// The old host did not drop the VM (it refuses one with dirty pages or
		// a staged capture), so the copy just installed must go or two nodes
		// would run it. Best effort: the first error is the one worth reporting.
		evict(s.TargetNode) //nolint:errcheck
		return fmt.Errorf("runtime: evict %q from node %d: %w", s.VM, v.Node, err)
	}
	return nil
}

// groupRebuild starts a rebuild of one group at the committed epoch, naming
// every member and parity block whose node is up as a source.
func (c *Coordinator) groupRebuild(group int) rebuildConfig {
	g := c.layout.Groups[group]
	rc := rebuildConfig{
		Group: group, Members: g.Members, Tolerance: c.layout.Tolerance, Pages: c.pages, PageSize: c.pageSize,
		Epoch: c.epoch.Load(), Survivors: map[string]int{}, ParityPeers: map[int]int{},
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range g.Members {
		if v, _ := c.layout.VM(m); !c.dead[v.Node] {
			rc.Survivors[m] = v.Node
		}
	}
	for i, pn := range g.ParityNodes {
		if !c.dead[pn] {
			rc.ParityPeers[i] = pn
		}
	}
	return rc
}

// sendRebuild has node run a rebuild and checks its acknowledgement.
func (c *Coordinator) sendRebuild(ctx obs.SpanContext, node int, rc rebuildConfig) error {
	text, err := encodeJSON(rc)
	if err != nil {
		return err
	}
	resp, err := c.call(node, &wire.Message{Type: wire.MsgReconstruct, Group: int32(rc.Group), Text: text, Trace: ctx.Trace, Span: ctx.Span})
	if err == nil && resp.Type != wire.MsgReconstructOK {
		err = fmt.Errorf("node replied %v", resp.Type)
	}
	if err != nil {
		return fmt.Errorf("runtime: rebuild of group %d on node %d: %w", rc.Group, node, err)
	}
	return nil
}

// refreshParityPointers pushes the current parity-node assignment of the
// given groups to every alive node: one MsgSetParityBatch per node carrying
// every (group, parity block) pointer.
func (c *Coordinator) refreshParityPointers(ctx obs.SpanContext, groups map[int]bool) error {
	var sorted []int
	for g := range groups {
		sorted = append(sorted, g)
	}
	sort.Ints(sorted)
	var updates []parityUpdate
	for _, gi := range sorted {
		for i, pn := range c.layout.Groups[gi].ParityNodes {
			updates = append(updates, parityUpdate{Group: gi, Idx: i, Node: pn})
		}
	}
	if len(updates) == 0 {
		return nil
	}
	text, err := encodeJSON(updates)
	if err != nil {
		return err
	}
	return c.fanout(ctx, "set-parity", c.aliveNodes(),
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgSetParityBatch, Text: text} },
		func(node int, resp *wire.Message) error {
			if resp.Type != wire.MsgSetParityBatchOK {
				return fmt.Errorf("runtime: node %d replied %v to set-parity batch", node, resp.Type)
			}
			return nil
		})
}

// Repair marks a previously failed node as back in service. Its daemon must
// be listening on the original address again (or a replacement daemon on the
// same address); it starts empty and picks up work via Rebalance. A node still
// pending recovery (see markDead) must be recovered before repair.
func (c *Coordinator) Repair(node int) error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	c.mu.Lock()
	dead, pending := c.dead[node], c.pending[node]
	c.mu.Unlock()
	if !dead {
		return fmt.Errorf("runtime: node %d is not dead", node)
	}
	if pending {
		return fmt.Errorf("runtime: node %d has not been recovered; run RecoverNodes first", node)
	}
	probe, err := transport.Dial(c.addrs[node])
	if err != nil {
		return fmt.Errorf("runtime: node %d not reachable for repair: %w", node, err)
	}
	probe.Close()
	c.mu.Lock()
	delete(c.dead, node)
	c.mu.Unlock()
	// The rejoined daemon needs a fresh configuration (peers, chunking); the
	// layout places nothing on a recovered node, so it hosts nothing until
	// rebalance moves VMs or parity to it.
	text, err := encodeJSON(c.nodeConfig(node))
	if err != nil {
		return err
	}
	if _, err := c.call(node, &wire.Message{Type: wire.MsgConfigure, Text: text}); err != nil {
		return fmt.Errorf("runtime: reconfigure repaired node %d: %w", node, err)
	}
	return nil
}

// Rebalance restores strict orthogonality after degraded recoveries, once
// repaired nodes have rejoined: co-located VMs move, and co-located parity
// blocks are rebuilt on their new homes, by the plan rule recovery follows
// (execute). A step that fails leaves its VM or parity block where it was;
// the error is returned after the steps that did complete are recorded in the
// layout and their groups' parity pointers refreshed. Call immediately after
// Checkpoint, before any Step.
func (c *Coordinator) Rebalance() (*cluster.Plan, error) {
	return c.relocate("rebalance", -1, c.layout.PlanRebalance)
}

// EvacuateKeepers drains every parity block off one (alive) node — the
// placement response to the telemetry plane flagging the node as habitually
// slow. Each evacuated block is rebuilt on an orthogonality-preserving
// target (cluster.PlanKeeperEvacuation) by the plan rule recovery follows
// (execute) — the node keeps its hosted VMs, it just stops being a fan-in
// point. Call right after a committed Checkpoint, before any Step, like
// Rebalance. Layouts with no legal target (the paper's minimal 4-node
// placement) fail loudly; an empty plan means the node already keeps no
// parity.
func (c *Coordinator) EvacuateKeepers(node int) (*cluster.Plan, error) {
	return c.relocate("evacuate", node, func(down ...int) (*cluster.Plan, error) {
		return c.layout.PlanKeeperEvacuation(node, down...)
	})
}

// relocate is Rebalance and EvacuateKeepers: it plans with planner against
// the nodes that are down and carries the plan out (execute) in a root span
// and a phase both called name. A node ≥ 0 is the node whose keepers are
// evacuated: it must be alive, and an empty plan for it returns at once.
func (c *Coordinator) relocate(name string, node int, planner func(down ...int) (*cluster.Plan, error)) (plan *cluster.Plan, err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	t0 := time.Now()
	c.mu.Lock()
	tr, dead := c.tracer, c.dead[node]
	c.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("runtime: cannot evacuate keepers off dead node %d", node)
	}
	root := tr.Start(obs.SpanContext{}, name, "coord")
	if node >= 0 {
		root.SetAttr("node", fmt.Sprint(node))
	}
	defer func() { root.FinishErr(err) }()
	plan, err = planner(c.downNodes()...)
	if err != nil || (node >= 0 && len(plan.Steps) == 0) {
		return plan, err
	}
	if err := c.execute(root.ContextOr(obs.SpanContext{}), tr, plan); err != nil {
		return nil, err
	}
	c.observePhase(name, time.Since(t0))
	return plan, nil
}

// Close drops every coordinator connection.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, p := range c.pools {
		p.Close()
		delete(c.pools, n)
	}
}
