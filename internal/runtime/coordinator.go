package runtime

import (
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

// Coordinator drives node daemons through the DVDC protocol — setup,
// workload steps, two-phase checkpoint rounds, recovery, repair and
// relocation — and owns the live cluster.Layout. Every phase fans out to all
// nodes concurrently over per-peer pools, bounded by the fan-out width, and
// every RPC carries an I/O deadline, so a hung node surfaces as a timeout.
// Protocol operations serialize on a round mutex (callers queue; each
// operation is internally parallel); the read paths (Epoch, RoundStats,
// Checksums, VMStates) are safe from any goroutine at any time.
type Coordinator struct {
	roundMu sync.Mutex // serializes protocol operations (one round at a time)

	mu       sync.Mutex // guards pools, dead, pending, lastPlan, retiredRetries
	pools    map[int]*transport.Pool
	dead     map[int]bool
	pending  map[int]bool  // dead, and no recovery of them has succeeded yet
	lastPlan *cluster.Plan // the plan of the last recovery that succeeded

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
	postmortemDir  string // where a partial commit dumps a bundle ("" = none)

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
// nil): every operation that calls a node opens a root span whose trace id
// rides its RPCs, so each RPC the coordinator causes is an rpc span, and the
// registry gets phase histograms, round counters and each pool's health
// series. Like SetDialer, attach before the first round.
func (c *Coordinator) SetObserver(tr *obs.Tracer, reg *obs.Registry) {
	c.mu.Lock()
	c.tracer = tr
	c.registry = reg
	c.mu.Unlock()
}

// SetPostmortemDir names where a PartialCommitError — the protocol's "a node
// died mid-commit" failure — dumps a postmortem bundle of the coordinator's
// tracer, registry, seed and node count ("" = none, the default).
func (c *Coordinator) SetPostmortemDir(dir string) {
	c.mu.Lock()
	c.postmortemDir = dir
	c.mu.Unlock()
}

// NodeStats fetches a node's protocol counters.
func (c *Coordinator) NodeStats(node int) (st NodeStats, err error) {
	_, root := c.startRoot(obs.SpanContext{}, "stats")
	defer func() { root.FinishErr(err) }()
	resp, err := c.call(node, &wire.Message{Type: wire.MsgStats, Trace: root.TraceID(), Span: root.ID()})
	if err != nil {
		return NodeStats{}, err
	}
	if err := decodeJSON(resp.Text, &st); err != nil {
		return NodeStats{}, err
	}
	return st, nil
}

// LastPlan returns the plan of the last recovery that succeeded (nil if
// none).
func (c *Coordinator) LastPlan() *cluster.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastPlan
}

// Layout exposes the live layout.
func (c *Coordinator) Layout() *cluster.Layout { return c.layout }

// Epoch returns the last committed checkpoint epoch. Safe to call from any
// goroutine, including while a round is in flight on another.
func (c *Coordinator) Epoch() uint64 { return c.epoch.Load() }

// RoundStats returns the stats of the most recent checkpoint round; a
// recovery leaves them as they were.
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
	return c.openPool(node), nil
}

// openPool returns (lazily creating) node's pool, dead or not; c.mu is held.
func (c *Coordinator) openPool(node int) *transport.Pool {
	if p, ok := c.pools[node]; ok {
		return p
	}
	p := transport.NewPool(c.addrs[node], transport.PoolOptions{
		CallTimeout: c.rpcTimeout,
		Dialer:      c.dialer,
		Peer:        fmt.Sprintf("node%d", node),
		Tracer:      c.tracer,
		Registry:    c.registry,
	})
	c.pools[node] = p
	return p
}

// startRoot opens the root span of one protocol operation under parent (a
// zero parent roots a fresh trace), and returns it with the tracer; both are
// nil when no tracer is attached.
func (c *Coordinator) startRoot(parent obs.SpanContext, name string) (*obs.Tracer, *obs.Active) {
	c.mu.Lock()
	tr := c.tracer
	c.mu.Unlock()
	return tr, tr.Start(parent, name, "coord")
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

// markDead declares a node dead: its pool is closed, no further calls reach
// it, and it owes a recovery (pending) until one of it succeeds. A node
// already dead is left as it is: one recovered stays recovered.
func (c *Coordinator) markDead(node int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead[node] {
		return
	}
	c.dead[node], c.pending[node] = true, true
	c.retirePool(node)
}

// retirePool closes node's pool, keeping its retries; c.mu is held.
func (c *Coordinator) retirePool(node int) {
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

// fanout sends one request to each node concurrently (bounded by the fan-out
// width) and feeds each successful reply to handle, in node order, even when
// other nodes fail; the first error in node order is returned, wrapped with
// op. Built messages, fresh at every call site, are stamped with ctx in
// place; a zero ctx leaves the phase untraced.
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

// configureMsg renders node n's full assignment as a configure request.
func (c *Coordinator) configureMsg(n int) *wire.Message {
	text, _ := encodeJSON(c.nodeConfig(n)) // plain fields: Marshal cannot fail
	return &wire.Message{Type: wire.MsgConfigure, Text: text}
}

// Setup pushes the initial configuration to every node, concurrently.
func (c *Coordinator) Setup() (err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	nodes := make([]int, c.layout.Nodes)
	for n := range nodes {
		nodes[n] = n
	}
	_, root := c.startRoot(obs.SpanContext{}, "setup")
	defer func() { root.FinishErr(err) }()
	return c.fanout(root.Context(), "configure", nodes, c.configureMsg,
		func(n int, resp *wire.Message) error {
			if resp.Type != wire.MsgConfigureOK {
				return fmt.Errorf("runtime: node %d replied %v to configure", n, resp.Type)
			}
			return nil
		})
}

// Step runs the synthetic workload n steps on every alive node's VMs,
// concurrently across nodes.
func (c *Coordinator) Step(n uint64) (err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	_, root := c.startRoot(obs.SpanContext{}, "step")
	defer func() { root.FinishErr(err) }()
	return c.fanout(root.Context(), "step", c.aliveNodes(),
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgStep, Arg: n} },
		nil)
}

// Checkpoint executes one two-phase checkpoint round: PREPARE on every alive
// node in parallel (each captures deltas and ships them to parity peers),
// then COMMIT in parallel.
//
// Failure semantics, phase by phase:
//   - If any prepare fails, the round is aborted everywhere and the error
//     returned; the cluster stays at the previous committed epoch.
//   - Once the commit phase starts, the round completes: a fold cannot be
//     undone, so the epoch advances. A node whose commit fails through the
//     retry budget is declared dead, named by the *PartialCommitError
//     returned; RecoverNodes over it restores redundancy. No reachable node
//     ever holds an epoch the coordinator disowned.
func (c *Coordinator) Checkpoint() error { return c.CheckpointIn(obs.SpanContext{}) }

// CheckpointIn is Checkpoint with a parent span context: the round's root
// span joins the caller's trace (the service reconciler passes its reconcile
// span here so the whole round tree hangs under the attempt that drove it).
// A zero context roots a fresh trace, which is what Checkpoint does.
//
// Every call is a new round attempt, numbered in the prepare and abort
// messages' Arg: the retry of an aborted epoch renders its deltas anew, and a
// keeper must not take a batch of the aborted render for one of the retry's.
//
// No round starts while a node owes a recovery (pendingRecovery): it would
// commit without that node's VMs, and their keepers would refuse every round
// after the recovery. The refusal is a plain error, an uncommitted round.
func (c *Coordinator) CheckpointIn(parent obs.SpanContext) error {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	if owed := c.pendingRecovery(); len(owed) > 0 {
		return fmt.Errorf("runtime: nodes %v owe a recovery; run RecoverNodes first", owed)
	}
	c.attempts++
	attempt := c.attempts
	next := c.epoch.Load() + 1
	alive := c.aliveNodes()
	stats := RoundStats{Epoch: next}
	retriesBefore := c.totalRetries()

	tr, root := c.startRoot(parent, "round")
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
	// declared dead — its last commit error — goes on the commit span.
	var failedMu sync.Mutex
	var failed []int
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
		commit.SetAttr(fmt.Sprintf("node%d", node), fmt.Sprint(lastErr))
		failedMu.Lock()
		failed = append(failed, node)
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
		c.markDead(node)
	}
	stats.DeadDuring = failed
	c.recordRound(stats)
	if len(failed) > 0 {
		err := &PartialCommitError{Epoch: next, Nodes: failed}
		root.FinishErr(err)
		// The black-box moment: a node died mid-commit. Dump the tracer's
		// pre-failure window before recovery traffic overwrites it.
		c.mu.Lock()
		dir, reg := c.postmortemDir, c.registry
		c.mu.Unlock()
		obs.Dump(dir, "partial-commit", tr, reg, map[string]interface{}{"seed": c.seedBase, "nodes": c.layout.Nodes}) //nolint:errcheck // never turn a postmortem into a second failure
		return err
	}
	root.Finish()
	return nil
}

// ExecuteCheckpoint runs steps workload steps (0 = none) and one round inside
// ctx for the service control plane, whose Executor and Quiescer Coordinator
// is. A *PartialCommitError, its CasualtyError, passes through unwrapped.
func (c *Coordinator) ExecuteCheckpoint(ctx obs.SpanContext, steps uint64) (uint64, error) {
	if steps > 0 {
		if err := c.Step(steps); err != nil {
			return c.Epoch(), err
		}
	}
	err := c.CheckpointIn(ctx)
	return c.Epoch(), err
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
func (c *Coordinator) Quiesce() (err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	_, root := c.startRoot(obs.SpanContext{}, "quiesce")
	defer func() { root.FinishErr(err) }()
	return c.fanout(root.Context(), "abort", c.aliveNodes(),
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
func (c *Coordinator) VMStates() (_ map[string]VMState, err error) {
	vms := c.layout.VMs
	states := make([]VMState, len(vms))
	_, root := c.startRoot(obs.SpanContext{}, "vmstates")
	defer func() { root.FinishErr(err) }()
	if err := parallelDo(len(vms), c.fanoutW, func(i int) error {
		v := vms[i]
		resp, err := c.call(v.Node, &wire.Message{Type: wire.MsgChecksum, VM: v.Name, Trace: root.TraceID(), Span: root.ID()})
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

// Close drops every coordinator connection.
func (c *Coordinator) Close() {
	c.mu.Lock()
	defer c.mu.Unlock()
	for n, p := range c.pools {
		p.Close()
		delete(c.pools, n)
	}
}
