package runtime

import (
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/core"
	"dvdc/internal/obs"
	"dvdc/internal/parity"
	"dvdc/internal/transport"
	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// Node is one DVDC node daemon: it hosts VM members, runs their synthetic
// workloads on command, maintains parity blocks for the groups assigned to
// it, and serves the wire protocol.
//
// Locking is two-level so independent VMs make progress in parallel: the
// structural mutex mu guards only the identity and the maps (who is hosted,
// who the peers are), while each memberState and keeperState carries its own
// lock for its data path. Lock order is mu before any member/keeper lock,
// and no lock is ever held across a peer call.
type Node struct {
	mu         sync.Mutex
	id         int
	server     *transport.Server
	peers      map[int]string
	pools      map[int]*transport.Pool
	members    map[string]*memberState
	keepers    map[int]*keeperState // by group (orthogonality: at most one block of a group per node)
	held       map[heldKey][]byte   // elements this node decoded for other targets (handOff)
	chunkSize  int                  // effective chunk payload size, always > 0
	dedup      bool                 // capture skips dirty pages equal to the committed image
	rpcTimeout time.Duration
	dialer     transport.DialFunc
	tracer     *obs.Tracer
	registry   *obs.Registry
	recorder   *obs.FlightRecorder

	// aborted is the highest round attempt an abort has named (0: none since
	// configure), the floor every keeper's fold refuses batches at or below.
	// Written under mu, read by keepers under their own lock.
	aborted atomic.Uint64

	statsMu sync.Mutex
	stats   NodeStats
}

// memberState guards a member; a ship renders its staged capture chunk by
// chunk under mu. The guest stands still from prepare to commit — roundMu's
// job, Advance's check.
type memberState struct {
	mu       sync.Mutex
	mem      *core.Member
	workload vm.Workload
	cfg      VMConfig
}

// keeperState guards a keeper; arriving chunks fold into its round under mu.
type keeperState struct {
	mu     sync.Mutex
	keeper *core.MKeeper
	cfg    KeeperConfig
}

// NodeOptions customizes how a node daemon touches the network. The zero
// value is plain TCP on both sides; fault-injection layers (internal/chaos)
// substitute their own hooks.
type NodeOptions struct {
	Dialer transport.DialFunc   // outbound peer connections (nil = TCP)
	Listen transport.ListenFunc // the daemon's own listener (nil = TCP)

	// Observability (all optional): traced requests get per-handler spans in
	// this node's lane, the registry gets the node's peer-pool health series
	// and RPC latency histograms, and the flight recorder logs every peer RPC
	// outcome for postmortem bundles.
	Tracer   *obs.Tracer
	Registry *obs.Registry
	Recorder *obs.FlightRecorder
}

// NewNode starts a node daemon listening on addr ("127.0.0.1:0" for tests).
func NewNode(addr string) (*Node, error) {
	return NewNodeWith(addr, NodeOptions{})
}

// NewNodeWith starts a node daemon with custom network hooks.
func NewNodeWith(addr string, opts NodeOptions) (*Node, error) {
	n := &Node{
		peers:   map[int]string{},
		pools:   map[int]*transport.Pool{},
		members: map[string]*memberState{},
		keepers: map[int]*keeperState{},
		held:    map[heldKey][]byte{},
		// A node serves recovery reads before (and without) ever being
		// configured as a member host, so the tuning starts at the default.
		chunkSize: resolveChunkSize(0),
		dialer:    opts.Dialer,
		tracer:    opts.Tracer,
		registry:  opts.Registry,
		recorder:  opts.Recorder,
	}
	if opts.Registry != nil {
		mountBufpoolStats(opts.Registry)
	}
	s, err := transport.ListenWith(addr, n.handle, opts.Listen)
	if err != nil {
		return nil, err
	}
	n.server = s
	return n, nil
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.server.Addr() }

// SetRPCTimeout bounds every peer call this node makes (delta shipping,
// recovery image pulls). Applies to pools created after the call, so set it
// before the node receives traffic. 0 means no deadline.
func (n *Node) SetRPCTimeout(d time.Duration) {
	n.mu.Lock()
	n.rpcTimeout = d
	n.mu.Unlock()
}

// Close stops the daemon.
func (n *Node) Close() error {
	n.mu.Lock()
	for _, p := range n.pools {
		p.Close()
	}
	n.pools = map[int]*transport.Pool{}
	n.mu.Unlock()
	return n.server.Close()
}

// nodeID reads the node's identity under the structural lock.
func (n *Node) nodeID() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.id
}

// pool returns the (lazily created) connection pool for a peer.
func (n *Node) pool(id int) (*transport.Pool, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if p, ok := n.pools[id]; ok {
		return p, nil
	}
	addr, ok := n.peers[id]
	if !ok {
		return nil, fmt.Errorf("runtime: node %d has no address for peer %d", n.id, id)
	}
	p := transport.NewPool(addr, transport.PoolOptions{
		CallTimeout: n.rpcTimeout,
		Dialer:      n.dialer,
		Peer:        fmt.Sprintf("node%d", id),
		Tracer:      n.tracer,
		Registry:    n.registry,
		Recorder:    n.recorder,
	})
	n.pools[id] = p
	return p, nil
}

// callPeer routes a request to another node, short-circuiting self-calls to
// the local handler (no loopback round trip, no lock-order hazards). The
// pool re-dials and retries once when a cached connection turns out stale,
// so a daemon replaced on the same address is reachable again.
func (n *Node) callPeer(id int, msg *wire.Message) (*wire.Message, error) {
	if id == n.nodeID() {
		return n.handle(msg)
	}
	p, err := n.pool(id)
	if err != nil {
		return nil, err
	}
	return p.Call(msg)
}

// snapshotMembers copies the member list under the structural lock.
func (n *Node) snapshotMembers() []*memberState {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*memberState, 0, len(n.members))
	for _, ms := range n.members {
		out = append(out, ms)
	}
	return out
}

// snapshotKeepers copies the keeper list under the structural lock.
func (n *Node) snapshotKeepers() []*keeperState {
	n.mu.Lock()
	defer n.mu.Unlock()
	out := make([]*keeperState, 0, len(n.keepers))
	for _, ks := range n.keepers {
		out = append(out, ks)
	}
	return out
}

// handle serves one request: traced requests get a handler span in this
// node's lane (child of the caller's RPC-attempt span), then dispatch. Locks
// are taken by the individual operations, never across peer calls, to avoid
// distributed deadlock.
func (n *Node) handle(req *wire.Message) (*wire.Message, error) {
	ctx := obs.SpanContext{Trace: req.Trace, Span: req.Span}
	n.mu.Lock()
	tr, id := n.tracer, n.id
	n.mu.Unlock()
	sp := tr.Child(ctx, "node."+req.Type.String(), fmt.Sprintf("node%d", id))
	resp, err := n.dispatch(sp.ContextOr(ctx), req)
	sp.FinishErr(err)
	return resp, err
}

// dispatch routes one request to its handler. ctx is the request's span
// context (the handler span when traced) for handlers that make onward peer
// calls.
func (n *Node) dispatch(ctx obs.SpanContext, req *wire.Message) (*wire.Message, error) {
	switch req.Type {
	case wire.MsgHello:
		return &wire.Message{Type: wire.MsgHelloOK, Arg: uint64(n.nodeID())}, nil
	case wire.MsgConfigure:
		return n.onConfigure(req)
	case wire.MsgStep:
		return n.onStep(req)
	case wire.MsgPrepare:
		return n.onPrepare(ctx, req)
	case wire.MsgCommit:
		return n.onCommit(ctx, req)
	case wire.MsgAbort:
		return n.onAbort(req)
	case wire.MsgDeltaChunk:
		return n.onDeltaChunk(req)
	case wire.MsgReadChunk:
		return n.onReadChunk(req)
	case wire.MsgEvict:
		return n.onEvict(req)
	case wire.MsgReconstruct:
		return n.onRebuild(ctx, req)
	case wire.MsgChecksum:
		return n.onChecksum(req)
	case wire.MsgRollback:
		return n.onRollback(req)
	case wire.MsgSetParityBatch:
		return n.onSetParityBatch(req)
	case wire.MsgStats:
		return n.onStats(req)
	default:
		return nil, fmt.Errorf("runtime: node %d: unhandled message %v", n.nodeID(), req.Type)
	}
}

// onConfigure replaces the node's assignment. The whole assignment is built
// and checked before any node state changes, so a refused configuration
// leaves the node as it was.
func (n *Node) onConfigure(req *wire.Message) (*wire.Message, error) {
	var cfg NodeConfig
	if err := decodeJSON(req.Text, &cfg); err != nil {
		return nil, fmt.Errorf("runtime: bad configure payload: %w", err)
	}
	if err := checkChunkSize(cfg.ChunkSize); err != nil {
		return nil, err
	}
	// A configuration is the node's complete assignment: members and keepers
	// from a previous life (an earlier controller session, or state left
	// behind before a Repair) must not leak into the new one, or they ship
	// conflicting deltas for VMs that now live elsewhere.
	members := map[string]*memberState{}
	for _, vc := range cfg.VMs {
		m, err := vm.NewMachine(vc.Name, vc.Pages, vc.PageSize)
		if err != nil {
			return nil, err
		}
		mem, err := core.NewMember(m)
		if err != nil {
			return nil, err
		}
		members[vc.Name] = &memberState{
			mem:      mem,
			workload: newWorkload(vc.Workload, vc.Seed),
			cfg:      vc,
		}
	}
	keepers := map[int]*keeperState{}
	for _, kc := range cfg.Keepers {
		// Initial member images are all-zero, so every parity row of them is
		// zero too: the keeper starts from a zero block, nothing folded and no
		// bulk transfer at setup.
		k, err := core.NewMKeeperFromBlock(kc.Group, kc.ParityIdx, kc.Tolerance, kc.Members, make([]byte, kc.Pages*kc.PageSize), 0)
		if err != nil {
			return nil, err
		}
		if err := addKeeper(keepers, cfg.NodeID, &keeperState{keeper: k, cfg: kc}); err != nil {
			return nil, err
		}
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	n.id = cfg.NodeID
	n.peers = cfg.Peers
	n.aborted.Store(0)
	n.chunkSize = resolveChunkSize(cfg.ChunkSize)
	n.dedup = cfg.Dedup
	// Drop pools whose peer moved to a new address.
	for id, p := range n.pools {
		if addr, ok := cfg.Peers[id]; !ok || addr != p.Addr() {
			p.Close()
			delete(n.pools, id)
		}
	}
	n.members, n.keepers, n.held = members, keepers, map[heldKey][]byte{}
	return &wire.Message{Type: wire.MsgConfigureOK}, nil
}

func (n *Node) onStep(req *wire.Message) (*wire.Message, error) {
	members := n.snapshotMembers()
	if err := parallelDo(len(members), 0, func(i int) error {
		ms := members[i]
		ms.mu.Lock()
		defer ms.mu.Unlock()
		for s := uint64(0); s < req.Arg; s++ {
			ms.workload.Step(ms.mem.Machine())
		}
		return nil
	}); err != nil {
		return nil, err
	}
	return &wire.Message{Type: wire.MsgStepOK}, nil
}

// onPrepare stages a capture for every hosted member and ships its delta to
// the parity nodes of the member's group, members concurrently: a ship takes
// the member's lock only to render one chunk, so deltas bound for distinct
// peers overlap on the wire. A failure leaves other members staged; the
// coordinator's abort takes them back.
// The request's Arg is the coordinator's round attempt, which every batch
// carries. Each member's Stage and ship yield its share of the prepare's
// ShipCounts; the sum is added to the node's stats once, failed or not, and
// is the reply's Text, which the coordinator sums into the round's stats.
func (n *Node) onPrepare(ctx obs.SpanContext, req *wire.Message) (*wire.Message, error) {
	members := n.snapshotMembers()
	n.mu.Lock()
	id, cs, dedup := n.id, n.chunkSize, n.dedup
	tr, reg := n.tracer, n.registry
	n.mu.Unlock()
	lane := fmt.Sprintf("node%d", id)
	shares := make([]ShipCounts, len(members))
	prepErr := parallelDo(len(members), 0, func(i int) (shipErr error) {
		ms := members[i]
		ms.mu.Lock()
		// Under dedup a dirty page equal to the committed image is only counted.
		d, unchanged, err := ms.mem.Stage(dedup)
		parity := append([]int(nil), ms.cfg.ParityNodes...)
		ms.mu.Unlock()
		if err != nil {
			return fmt.Errorf("runtime: node %d: %w", id, err)
		}
		// One span per shipment, so the timeline shows them overlapping; batch
		// messages carry its context (the pool re-stamps Span per RPC attempt).
		span := tr.Child(ctx, "ship "+d.VMID, lane)
		defer func() { span.FinishErr(shipErr) }()
		shares[i], shipErr = n.shipChunked(span.ContextOr(ctx), span, ms, d, parity, cs, req.Arg)
		if dedup {
			shares[i].DedupHits = int64(unchanged)
			shares[i].DedupMisses = int64(d.PageCount())
			shares[i].DedupSavedBytes = int64(unchanged) * int64(ms.cfg.PageSize)
		}
		return shipErr
	})
	var sum ShipCounts
	for _, sh := range shares {
		sum.Add(sh)
	}
	n.statsMu.Lock()
	n.stats.ShipCounts.Add(sum)
	n.statsMu.Unlock()
	if dedup {
		reg.Counter("dvdc_dedup_hits_total").Add(sum.DedupHits)
		reg.Counter("dvdc_dedup_bytes_saved_total").Add(sum.DedupSavedBytes)
		reg.Counter("dvdc_dedup_misses_total").Add(sum.DedupMisses)
	}
	if prepErr != nil {
		return nil, prepErr
	}
	text, err := encodeJSON(sum)
	if err != nil {
		return nil, err
	}
	return &wire.Message{Type: wire.MsgPrepareOK, Epoch: req.Epoch, Text: text}, nil
}

// shipChunked ships the delta of ms's staged capture d to the parity peers of
// its group as chunk frames, packed back-to-back into batches (see
// chunkBatchBudget), one message per batch, stamped with the round attempt.
//
// Neither the delta nor its chunk list is materialised: the capture's cursor
// cuts each chunk as it is rendered. A batch is one pooled buffer: per chunk a
// header slot, live XOR committed of the chunk's range written straight behind
// it (core.Member.DeltaInto under ms.mu), the header sealed with a CRC of
// bytes still in cache. It goes to every peer as a plain Payload the transport
// sends from this buffer, and back to the pool when the last peer has
// answered; up to chunkPipelineWidth batches are in flight, so transfer overlaps
// rendering and folds. A ship whose capture is no longer staged (the round was
// aborted) stops. It returns the ship's bytes and chunks, counted whether or
// not it failed.
func (n *Node) shipChunked(sctx obs.SpanContext, span *obs.Active, ms *memberState, d *core.Delta, parity []int, chunkSize int, attempt uint64) (ShipCounts, error) {
	chunks := d.Chunks(ms.cfg.PageSize, ms.cfg.Pages*ms.cfg.PageSize, chunkSize)
	deltaInto := func(dst []byte, off int) error {
		ms.mu.Lock()
		defer ms.mu.Unlock()
		return ms.mem.DeltaInto(d, dst, off)
	}
	budget := max(chunkSize, chunkBatchBudget) + wire.ChunkHeaderLen
	var (
		inflight sync.WaitGroup
		slots    = make(chan struct{}, chunkPipelineWidth) // batches in flight
		shipErr  atomic.Pointer[error]                     // the first failure
		cur      []byte                                    // the batch being rendered
		batches  int
		wireB    int64
	)
	fail := func(err error) { shipErr.CompareAndSwap(nil, &err) }
	deliver := func(batch []byte, k, peer int) error {
		reply, err := n.callPeer(peer, &wire.Message{
			Type: wire.MsgDeltaChunk, Epoch: d.Epoch, Group: int32(ms.cfg.Group), VM: d.VMID, Arg: attempt,
			Payload: batch, Trace: sctx.Trace, Span: sctx.Span,
		})
		if err == nil && reply.Type != wire.MsgDeltaChunkOK {
			err = fmt.Errorf("unexpected reply %v", reply.Type)
		}
		if err != nil {
			return fmt.Errorf("runtime: shipping chunk batch %d of %q to node %d: %w", k, d.VMID, peer, err)
		}
		return nil
	}
	send := func() {
		batch, k := cur, batches+1
		cur, batches, wireB = nil, k, wireB+int64(len(batch))
		slots <- struct{}{}
		// An abort can overtake a rendered batch in the wait for a slot: check
		// again, so the batch does not leave after it (an empty render is just
		// the check). A keeper would refuse it by its attempt anyway.
		if err := deltaInto(nil, 0); err != nil {
			bufpool.Put(batch)
			fail(err)
			return
		}
		inflight.Add(1)
		go func() {
			defer inflight.Done()
			if err := parallelDo(len(parity), 0, func(j int) error { return deliver(batch, k, parity[j]) }); err != nil {
				fail(err)
			}
			bufpool.Put(batch)
			<-slots
		}()
	}
	for c, ok := chunks.Next(); ok && shipErr.Load() == nil; c, ok = chunks.Next() {
		need := wire.ChunkHeaderLen + int(c.RawLen)
		if cur != nil && len(cur)+need > budget {
			send()
		}
		if cur == nil {
			cur = bufpool.Get(batchLen(c, chunks, budget))[:0]
		}
		frame := cur[len(cur) : len(cur)+need]
		if err := deltaInto(frame[wire.ChunkHeaderLen:], int(c.Offset)); err != nil {
			fail(err)
			break
		}
		wire.SealChunk(frame, &c)
		cur = cur[:len(cur)+need]
	}
	if shipErr.Load() != nil {
		bufpool.Put(cur)
	} else if cur != nil {
		send()
	}
	inflight.Wait()

	span.SetAttr("bytes", fmt.Sprint(wireB))
	span.SetAttr("chunks", fmt.Sprint(chunks.Count()))
	span.SetAttr("batches", fmt.Sprint(batches))
	peers := int64(len(parity))
	sc := ShipCounts{BytesShipped: wireB * peers, ChunksShipped: int64(chunks.Count()) * peers, DeltaRawBytes: int64(d.PageCount()*ms.cfg.PageSize) * peers}
	if err := shipErr.Load(); err != nil {
		return sc, *err
	}
	return sc, nil
}

// batchLen sizes the buffer of the batch that opens with first, looking ahead
// on a copy of the cursor: the frames the budget admits (first alone may pass
// it), not the budget itself, so a full batch of default-size chunks and a
// sparse round's run of single-page frames both come from the 256 KiB pool
// class the receiver decodes them into.
func batchLen(first wire.Chunk, rest core.ChunkCursor, budget int) int {
	n := wire.ChunkHeaderLen + int(first.RawLen)
	for c, ok := rest.Next(); ok; c, ok = rest.Next() {
		need := wire.ChunkHeaderLen + int(c.RawLen)
		if n+need > budget {
			break
		}
		n += need
	}
	return n
}

// onDeltaChunk folds delta chunks into the keeper's staged next-epoch pages
// — the receiving half of the ship path. The payload carries one or
// more self-delimiting chunk frames (the sender batches small frames into one
// message); each is decoded, verified against its stream and folded under
// ks.mu before the next is decoded, and the reply goes out once the batch is
// folded. A chunk counts as delivered exactly when it is folded, so a batch
// rejected partway keeps the chunks before the bad frame and its re-send
// folds only the rest. The fold lands beside the committed parity pages so
// two-phase semantics hold: abort drops the staged pages, commit swaps them in.
// Redelivered chunks (the transport retries once over a fresh dial when a
// connection drops, resending whole batches) are detected by index and
// skipped without folding again, since a second XOR fold would cancel the
// first.
func (n *Node) onDeltaChunk(req *wire.Message) (*wire.Message, error) {
	n.mu.Lock()
	ks, ok := n.keepers[int(req.Group)]
	id, reg := n.id, n.registry
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("runtime: node %d keeps no parity for group %d", id, req.Group)
	}
	folded, dups, foldD, err := n.foldBatch(ks, req)
	n.statsMu.Lock()
	n.stats.ChunksReceived += folded
	n.stats.DupChunks += dups
	n.statsMu.Unlock()
	if folded > 0 && reg != nil { // fold time: one histogram sample per batch
		reg.Histogram("dvdc_chunk_fold_seconds", obs.LatencyBuckets()).Observe(foldD.Seconds())
	}
	if err != nil {
		return nil, err
	}
	return &wire.Message{Type: wire.MsgDeltaChunkOK, Epoch: req.Epoch, VM: req.VM}, nil
}

// foldBatch walks req's chunk frames under ks.mu, folding each in turn
// through the keeper's checked fold (core.MKeeper.Fold, which refuses a batch
// of an attempt at or below the node's floor and drops re-delivered chunks);
// it returns how many chunks it folded and dropped as duplicates and the time
// the folds took, up to the first bad frame.
func (n *Node) foldBatch(ks *keeperState, req *wire.Message) (folded, dups int64, foldD time.Duration, err error) {
	ks.mu.Lock()
	defer ks.mu.Unlock()
	floor := n.aborted.Load()
	// An empty payload decodes to a short-header error on the first
	// iteration, so a batch always contains at least one frame.
	for buf := req.Payload; ; {
		c, adv, err := wire.DecodeChunkPrefix(buf)
		if err != nil {
			return folded, dups, foldD, err
		}
		start := time.Now()
		fold, err := ks.keeper.Fold(req.VM, req.Epoch, req.Arg, floor, &c)
		switch {
		case err != nil:
			return folded, dups, foldD, err
		case fold:
			folded++
			foldD += time.Since(start)
		default:
			dups++
		}
		if buf = buf[adv:]; len(buf) == 0 {
			return folded, dups, foldD, nil
		}
	}
}

// onCommit lands epoch req.Epoch: every keeper swaps its staged pages into its
// parity block, then every member advances to its staged capture. Only
// complete streams and captures of that epoch commit (core.MKeeper.Commit,
// core.Member.Advance): anything else is refused and changes nothing; finding
// nothing staged (a retry whose first reply was lost) is a no-op.
func (n *Node) onCommit(ctx obs.SpanContext, req *wire.Message) (*wire.Message, error) {
	keepers, members := n.snapshotKeepers(), n.snapshotMembers()
	n.mu.Lock()
	tr, id := n.tracer, n.id
	n.mu.Unlock()
	lane := fmt.Sprintf("node%d", id)
	if err := parallelDo(len(keepers), 0, func(i int) (commitErr error) {
		ks := keepers[i]
		ks.mu.Lock()
		defer ks.mu.Unlock()
		span := tr.Child(ctx, fmt.Sprintf("fold g%d", ks.keeper.Group()), lane)
		defer func() { span.FinishErr(commitErr) }()
		if s := ks.keeper.Streams(); s > 0 {
			span.SetAttr("streams", fmt.Sprint(s))
		}
		if err := ks.keeper.Commit(req.Epoch); err != nil {
			return fmt.Errorf("runtime: node %d: commit group %d: %w", id, ks.keeper.Group(), err)
		}
		return nil
	}); err != nil {
		return nil, err
	}
	// The members advance last (each staged page's pre-image is released).
	// One that cannot — the guest ran since prepare — fails the node's
	// commit: the coordinator declares the node dead and the VM comes back from
	// parity.
	if err := parallelDo(len(members), 0, func(i int) error {
		ms := members[i]
		ms.mu.Lock()
		defer ms.mu.Unlock()
		return ms.mem.Advance(req.Epoch)
	}); err != nil {
		return nil, fmt.Errorf("runtime: node %d: %w", id, err)
	}
	return &wire.Message{Type: wire.MsgCommitOK, Epoch: req.Epoch}, nil
}

// onAbort takes back whatever the node holds of an uncommitted round,
// whichever epoch the message names: keepers drop their staged pages and
// streams, members unstage. On a clean node it is a no-op. Its Arg, the
// aborted round attempt, first raises the floor at or below which keepers
// refuse batches, so a batch of that attempt still in flight cannot open a
// stream after the drop.
func (n *Node) onAbort(req *wire.Message) (*wire.Message, error) {
	n.mu.Lock()
	if req.Arg > n.aborted.Load() {
		n.aborted.Store(req.Arg)
	}
	n.mu.Unlock()
	for _, ks := range n.snapshotKeepers() {
		ks.mu.Lock()
		ks.keeper.Drop()
		ks.mu.Unlock()
	}
	for _, ms := range n.snapshotMembers() {
		ms.mu.Lock()
		ms.mem.Unstage()
		ms.mu.Unlock()
	}
	return &wire.Message{Type: wire.MsgAbortOK, Epoch: req.Epoch}, nil
}

// member looks a hosted member up under the structural lock.
func (n *Node) member(name string) (*memberState, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ms, ok := n.members[name]
	if !ok {
		return nil, fmt.Errorf("runtime: node %d does not host %q", n.id, name)
	}
	return ms, nil
}

// readChunkPayload renders chunk index of a total-byte block into a pooled
// frame: render copies the chunk's bytes from the member's or keeper's own
// memory (the caller holds the lock that keeps it still) straight in behind
// the header slot, the only copy a served chunk pays, and the header is
// sealed over them.
func readChunkPayload(total, index, chunkSize int, render func(dst []byte, off int)) ([]byte, error) {
	c, err := wire.ChunkAt(total, index, chunkSize)
	if err != nil {
		return nil, err
	}
	frame := bufpool.Get(wire.ChunkHeaderLen + int(c.RawLen))
	render(frame[wire.ChunkHeaderLen:], int(c.Offset))
	wire.SealChunk(frame, &c)
	return frame, nil
}

// onReadChunk serves one chunk of a committed image (Text "image", keyed by
// VM), a parity block (Text "parity", keyed by Group) or an element this node
// holds for a handoff (Text "held", keyed by Group and VM, a parity block's
// index riding in Epoch), never materializing a full copy per request. Arg
// packs uint64(index)<<32 | uint32(chunkSize). Image replies carry the
// member's committed epoch; parity and held replies carry the parity index in
// Arg so the caller can verify it got the block it asked for. The reply
// payload is a pooled frame whoever receives the reply releases: the
// transport server after the flush, or the local caller on a self-call.
func (n *Node) onReadChunk(req *wire.Message) (*wire.Message, error) {
	index := int(req.Arg >> 32)
	chunkSize := int(uint32(req.Arg))
	if chunkSize <= 0 {
		return nil, fmt.Errorf("runtime: read-chunk with chunk size %d", chunkSize)
	}
	reply := &wire.Message{Type: wire.MsgReadChunkOK, Group: req.Group, VM: req.VM}
	n.mu.Lock()
	ms, hosted := n.members[req.VM]
	ks, kept := n.keepers[int(req.Group)]
	held, isHeld := n.held[heldKey{group: int(req.Group), Element: core.Element{VM: req.VM, Parity: int(req.Epoch)}}]
	id := n.id
	n.mu.Unlock()
	size, render := 0, func(dst []byte, off int) { copy(dst, held[off:]) } // a held element is served as is
	switch {
	case req.Text == "image" && hosted:
		ms.mu.Lock()
		defer ms.mu.Unlock()
		size, render, reply.Epoch = int(ms.mem.Machine().ImageBytes()), ms.mem.CommittedInto, ms.mem.Epoch()
	case req.Text == "parity" && kept:
		ks.mu.Lock()
		defer ks.mu.Unlock()
		size, render, reply.Arg = ks.keeper.Size(), ks.keeper.ReadParity, uint64(ks.keeper.ParityIndex())
	case req.Text == "held" && isHeld: // a held element is never written: no lock
		size, reply.Arg = len(held), req.Epoch
	default:
		return nil, fmt.Errorf("runtime: node %d has no %s block %q / group %d to read", id, req.Text, req.VM, req.Group)
	}
	payload, err := readChunkPayload(size, index, chunkSize, render)
	if err != nil {
		return nil, err
	}
	reply.Payload = payload
	return reply, nil
}

// blockSource is one term of a streamed combine: a block a peer serves over
// MsgReadChunk — the committed image of vm or, when vm is empty, parity block
// parity of the combine's group; when held, that element as a decoder holds
// it for a handoff — and its coefficient in each of the combine's outputs.
type blockSource struct {
	node   int
	vm     string
	parity int
	held   bool
	coefs  []byte
}

// heldKey names an element of group a decoder holds for another target.
type heldKey struct {
	group int
	core.Element
}

// sources lists the blocks a rebuild pulls, each with its coefficient per
// lost element: the one element From holds as is, or the k shards
// core.PlanShards picks among the elements whose node is up.
func (cfg *rebuildConfig) sources() ([]blockSource, error) {
	if cfg.From == nil {
		lost := make([]core.Element, len(cfg.Lost))
		for i, e := range cfg.Lost {
			lost[i] = e.element()
		}
		shards, err := core.PlanShards(cfg.Members, cfg.Tolerance, lost, func(e core.Element) bool {
			_, up := cfg.home(e)
			return up
		})
		if err != nil {
			return nil, err
		}
		srcs := make([]blockSource, len(shards))
		for i, s := range shards {
			node, _ := cfg.home(s.Element)
			srcs[i] = blockSource{node: node, vm: s.VM, parity: s.Parity, coefs: s.Coefs}
		}
		return srcs, nil
	}
	if len(cfg.Lost) != 1 {
		return nil, fmt.Errorf("runtime: a copy from node %d names %d elements", *cfg.From, len(cfg.Lost))
	}
	e := cfg.Lost[0].element()
	return []blockSource{{node: *cfg.From, vm: e.VM, parity: e.Parity, held: cfg.Held, coefs: []byte{1}}}, nil
}

// element names e in core's terms.
func (e lostElement) element() core.Element {
	if e.VM != nil {
		return core.Element{VM: e.VM.Name}
	}
	return core.Element{Parity: e.Parity}
}

// home returns the node that serves element e of a decoding rebuild, and
// whether that node is up.
func (cfg *rebuildConfig) home(e core.Element) (int, bool) {
	if e.VM != "" {
		n, ok := cfg.Survivors[e.VM]
		return n, ok
	}
	n, ok := cfg.ParityPeers[e.Parity]
	return n, ok
}

// readSlot is the bytes one MsgReadChunk pulls. The chunk size is the ship
// path's grain; nothing on the read side needs it, so recovery reads in
// slots: 252 KiB is the largest page multiple whose reply frame (slot plus
// chunk header) stays in the 256 KiB pool class ship batches already use. A
// variable only so tests can cut small images into several slots.
var readSlot = 252 << 10

// pullCombine streams outs[o] = sum of coefs[o] * block over srcs into
// outputs fresh total-byte buffers: the one operation behind a recovery
// (every lost element's decode row over the same k surviving shards), a
// parity re-home (the encoding row over the k member images), a move and a
// handoff (one block, coefficient 1). The outputs are cut into readSlot
// slots; each slot index belongs to one goroutine, which pulls that slot from
// every source in turn and folds the verified reply into every output while
// it is in cache — fetch and decode overlap, no lock guards the outputs, and
// what is in flight beside them is one reply buffer per goroutine,
// chunkPipelineWidth per source. Image replies must be at epoch, the
// committed epoch the rebuild names. Any failure fails the whole combine.
func (n *Node) pullCombine(ctx obs.SpanContext, group, total int, epoch uint64, srcs []blockSource, outputs int) ([][]byte, error) {
	if total < 0 || total > wire.MaxFrame {
		return nil, fmt.Errorf("runtime: combine of a %d-byte block", total)
	}
	outs := make([][]byte, outputs)
	for o := range outs {
		outs[o] = make([]byte, total)
	}
	var failed atomic.Bool
	err := parallelDo(wire.ChunkCount(total, readSlot), chunkPipelineWidth*len(srcs), func(index int) error {
		slots := make([]wire.Chunk, len(outs))
		for o, out := range outs {
			slots[o], _ = wire.ChunkOf(out, index, readSlot) // index is in range
		}
		for j := range srcs {
			if failed.Load() {
				return nil // the combine is lost; the slot that failed reports why
			}
			// Slots start on different sources so the peers are read evenly.
			src := &srcs[(index+j)%len(srcs)]
			if err := n.pullChunk(ctx, src, group, epoch, slots); err != nil {
				failed.Store(true)
				return fmt.Errorf("runtime: pulling chunk %d of %q / parity[%d] (held %t) of group %d from node %d: %w",
					index, src.vm, src.parity, src.held, group, src.node, err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return outs, nil
}

// pullChunk reads one chunk of one source and folds its bytes, times the
// source's coefficient for each output, into slots[o].Data, the range of
// output o that chunk covers (every slot is wire.ChunkOf its output at one
// index). A fold is not idempotent — a duplicated or misrouted chunk would
// cancel or corrupt the slot — so the reply must answer exactly this request
// (right block, right index, the stream shape the slots were cut from, the
// rebuild's epoch) or nothing is folded. The reply buffer goes back to the
// pool either way: it is this caller's from the socket decode, or from the
// local handler on a self-call.
func (n *Node) pullChunk(ctx obs.SpanContext, src *blockSource, group int, epoch uint64, slots []wire.Chunk) error {
	req := &wire.Message{
		Type: wire.MsgReadChunk, Text: "image", VM: src.vm,
		Arg:   uint64(slots[0].Index)<<32 | uint64(uint32(readSlot)),
		Trace: ctx.Trace, Span: ctx.Span,
	}
	switch {
	case src.held:
		req.Text, req.Group, req.Epoch = "held", int32(group), uint64(src.parity)
	case src.vm == "":
		req.Text, req.Group = "parity", int32(group)
	}
	resp, err := n.callPeer(src.node, req)
	if err != nil {
		return err
	}
	defer bufpool.Put(resp.Payload)
	if resp.Type != wire.MsgReadChunkOK || resp.VM != req.VM || resp.Group != req.Group {
		return fmt.Errorf("reply %v for %q/group %d does not answer the request", resp.Type, resp.VM, resp.Group)
	}
	if src.vm == "" && resp.Arg != uint64(src.parity) {
		return fmt.Errorf("node serves parity[%d] of the group", resp.Arg)
	}
	if src.vm != "" && !src.held && resp.Epoch != epoch {
		return fmt.Errorf("image is at epoch %d, the rebuild at %d", resp.Epoch, epoch)
	}
	c, err := wire.DecodeChunk(resp.Payload)
	if err != nil {
		return err
	}
	slot := &slots[0]
	if c.Index != slot.Index || c.Offset != slot.Offset || c.Total != slot.Total || c.Count != slot.Count ||
		len(c.Data) != len(slot.Data) {
		return fmt.Errorf("reply carries chunk %d/%d at [%d,+%d) of %d bytes, want %d/%d at [%d,+%d) of %d",
			c.Index, c.Count, c.Offset, len(c.Data), c.Total, slot.Index, slot.Count, slot.Offset, len(slot.Data), slot.Total)
	}
	for o := range slots {
		if err := parity.MulSliceInto(slots[o].Data, c.Data, src.coefs[o]); err != nil {
			return err
		}
	}
	return nil
}

// onRebuild serves MsgReconstruct, the one rebuild request — a recovery's,
// a parity re-home's, a move's or a handoff's: it rebuilds the lost elements
// of one group in one pass, pulling the sources once and folding every
// verified reply into one output per element. The elements targeted at other
// nodes are handed off (handOff); the ones targeted here are adopted last,
// once every handoff succeeded, so a rebuild that fails adopts nothing here
// and holds nothing after. A VM the node already hosts is refused before
// anything is pulled.
func (n *Node) onRebuild(ctx obs.SpanContext, req *wire.Message) (*wire.Message, error) {
	var cfg rebuildConfig
	if err := decodeJSON(req.Text, &cfg); err != nil {
		return nil, err
	}
	n.mu.Lock()
	id, err := n.id, error(nil)
	for _, e := range cfg.Lost {
		if e.Target == id && e.VM != nil && err == nil {
			err = n.alreadyHosts(e.VM.Name)
		}
	}
	n.mu.Unlock()
	if err != nil {
		return nil, err
	}
	srcs, err := cfg.sources()
	if err != nil {
		return nil, fmt.Errorf("runtime: rebuild of group %d: %w", cfg.Group, err)
	}
	outs, err := n.pullCombine(ctx, cfg.Group, cfg.Pages*cfg.PageSize, cfg.Epoch, srcs, len(cfg.Lost))
	if err != nil {
		return nil, err
	}
	if err := n.handOff(ctx, &cfg, outs); err != nil {
		return nil, err
	}
	for i, e := range cfg.Lost {
		if e.Target == id {
			if err := n.adopt(&cfg, e, outs[i]); err != nil {
				return nil, err
			}
		}
	}
	return &wire.Message{Type: wire.MsgReconstructOK, Group: int32(cfg.Group)}, nil
}

// handOff has the target of every element of cfg not targeted here take its
// output from this node: the output is held (source kind "held") while its
// target runs a one-source rebuild From this node, targets concurrently, and
// every held block is dropped once the handoffs are done, whatever became of
// them.
func (n *Node) handOff(ctx obs.SpanContext, cfg *rebuildConfig, outs [][]byte) error {
	var others []lostElement
	var keys []heldKey
	n.mu.Lock()
	id := n.id
	for i, e := range cfg.Lost {
		if e.Target != id {
			key := heldKey{group: cfg.Group, Element: e.element()}
			n.held[key] = outs[i]
			others, keys = append(others, e), append(keys, key)
		}
	}
	n.mu.Unlock()
	defer func() {
		n.mu.Lock()
		for _, key := range keys {
			delete(n.held, key)
		}
		n.mu.Unlock()
	}()
	return parallelDo(len(others), 0, func(j int) error {
		e, hc := others[j], *cfg
		hc.Survivors, hc.ParityPeers, hc.From, hc.Held, hc.Lost = nil, nil, &id, true, []lostElement{e}
		text, err := encodeJSON(hc)
		if err != nil {
			return err
		}
		resp, err := n.callPeer(e.Target, &wire.Message{Type: wire.MsgReconstruct, Group: int32(cfg.Group), Text: text, Trace: ctx.Trace, Span: ctx.Span})
		if err == nil && resp.Type != wire.MsgReconstructOK {
			err = fmt.Errorf("unexpected reply %v", resp.Type)
		}
		if err != nil {
			return fmt.Errorf("runtime: handoff of group %d to node %d: %w", cfg.Group, e.Target, err)
		}
		return nil
	})
}

// alreadyHosts refuses to adopt a VM the node hosts. Caller holds n.mu.
func (n *Node) alreadyHosts(name string) error {
	if _, dup := n.members[name]; dup {
		return fmt.Errorf("runtime: node %d already hosts %q", n.id, name)
	}
	return nil
}

// adopt makes this node the holder of element e of cfg's group, taking its
// rebuilt bytes out as is: a VM's committed image (the machine's memory is
// that buffer), or a parity block with every member folded to the committed
// epoch.
func (n *Node) adopt(cfg *rebuildConfig, e lostElement, out []byte) error {
	if e.VM == nil {
		k, err := core.NewMKeeperFromBlock(cfg.Group, e.Parity, cfg.Tolerance, cfg.Members, out, cfg.Epoch)
		if err != nil {
			return err
		}
		kc := KeeperConfig{Group: cfg.Group, ParityIdx: e.Parity, Tolerance: cfg.Tolerance, Members: cfg.Members, Pages: cfg.Pages, PageSize: cfg.PageSize}
		n.mu.Lock()
		defer n.mu.Unlock()
		return addKeeper(n.keepers, n.id, &keeperState{keeper: k, cfg: kc})
	}
	mem, err := core.NewMemberAt(e.VM.Name, e.VM.PageSize, out, cfg.Epoch)
	if err != nil {
		return err
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	// Again under the registering lock: a transport-retried request can
	// overlap its first delivery.
	if err := n.alreadyHosts(e.VM.Name); err != nil {
		return err
	}
	n.members[e.VM.Name] = &memberState{mem: mem, workload: newWorkload(e.VM.Workload, e.VM.Seed), cfg: *e.VM}
	return nil
}

func (n *Node) onChecksum(req *wire.Message) (*wire.Message, error) {
	ms, err := n.member(req.VM)
	if err != nil {
		return nil, err
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	h := fnv.New64a()
	ms.mem.HashCommitted(h)
	return &wire.Message{Type: wire.MsgChecksumOK, VM: req.VM, Arg: h.Sum64(), Epoch: ms.mem.Epoch()}, nil
}

// onRollback returns every hosted member to its committed epoch and drops
// whatever the node holds of an uncommitted round or an unfinished handoff.
func (n *Node) onRollback(req *wire.Message) (*wire.Message, error) {
	members := n.snapshotMembers()
	n.mu.Lock()
	clear(n.held)
	n.mu.Unlock()
	_ = parallelDo(len(members), 0, func(i int) error { // a rollback cannot fail
		ms := members[i]
		ms.mu.Lock()
		defer ms.mu.Unlock()
		// An uncommitted capture never touched the committed image: dropping
		// it leaves the last COMMIT-ed epoch to roll back to. Its pages are
		// among those the rollback copies back.
		ms.mem.Rollback()
		return nil
	})
	for _, ks := range n.snapshotKeepers() {
		ks.mu.Lock()
		ks.keeper.Drop()
		ks.mu.Unlock()
	}
	return &wire.Message{Type: wire.MsgRollbackOK}, nil
}

// addKeeper registers node's keeper ks in keepers under its group. The map
// holds one block per group, so a second block of the same group with a different
// parity index is refused rather than silently replacing the first (which
// would lose a parity block the layout still counts on). Re-registering the
// same index replaces a block this node already held. A node's own map is
// guarded by its n.mu.
func addKeeper(keepers map[int]*keeperState, node int, ks *keeperState) error {
	if prev, ok := keepers[ks.cfg.Group]; ok && prev.cfg.ParityIdx != ks.cfg.ParityIdx {
		return fmt.Errorf("runtime: node %d already keeps parity[%d] of group %d, refusing parity[%d]",
			node, prev.cfg.ParityIdx, ks.cfg.Group, ks.cfg.ParityIdx)
	}
	keepers[ks.cfg.Group] = ks
	return nil
}

// onEvict drops a hosted VM — the closing half of a move, sent once the new
// host has adopted the image (and to the new host itself, to undo a move the
// source refused). The VM must be quiescent (no dirty pages, no staged
// delta): rebalancing runs immediately after a commit, so the copy the new
// host pulled is the whole VM and nothing is lost by dropping this one.
func (n *Node) onEvict(req *wire.Message) (*wire.Message, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	ms, ok := n.members[req.VM]
	if !ok {
		return nil, fmt.Errorf("runtime: node %d does not host %q", n.id, req.VM)
	}
	ms.mu.Lock()
	defer ms.mu.Unlock()
	if ms.mem.Staged() != nil {
		return nil, fmt.Errorf("runtime: %q has a staged capture; commit or abort first", req.VM)
	}
	if ms.mem.Machine().DirtyCount() != 0 {
		return nil, fmt.Errorf("runtime: %q has uncommitted dirty pages; checkpoint first", req.VM)
	}
	delete(n.members, req.VM)
	return &wire.Message{Type: wire.MsgEvictOK, VM: req.VM}, nil
}

// onStats serves the node's protocol counters.
func (n *Node) onStats(req *wire.Message) (*wire.Message, error) {
	n.statsMu.Lock()
	st := n.stats
	n.statsMu.Unlock()
	text, err := encodeJSON(st)
	if err != nil {
		return nil, err
	}
	return &wire.Message{Type: wire.MsgStatsOK, Text: text}, nil
}

// setParity points hosted members of one group at a new parity node for one
// parity block (after a keeper was re-homed during recovery). The update is
// authoritative about where the block lives, so a node still holding that
// block after it moved elsewhere (rebalance and evacuation rebuild a block on
// its new home without visiting the old one) drops its stale copy here —
// otherwise addKeeper would refuse a different block of the group later.
func (n *Node) setParity(group, idx, node int) error {
	n.mu.Lock()
	if ks, ok := n.keepers[group]; ok && ks.cfg.ParityIdx == idx && node != n.id {
		delete(n.keepers, group)
	}
	n.mu.Unlock()
	for _, ms := range n.snapshotMembers() {
		ms.mu.Lock()
		if ms.cfg.Group != group {
			ms.mu.Unlock()
			continue
		}
		if idx < 0 || idx >= len(ms.cfg.ParityNodes) {
			name := ms.cfg.Name
			ms.mu.Unlock()
			return fmt.Errorf("runtime: parity index %d out of range for %q", idx, name)
		}
		ms.cfg.ParityNodes[idx] = node
		ms.mu.Unlock()
	}
	return nil
}

// onSetParityBatch applies a whole recovery's worth of parity reassignments
// in one round trip (JSON list of parityUpdate in Text).
func (n *Node) onSetParityBatch(req *wire.Message) (*wire.Message, error) {
	var updates []parityUpdate
	if err := decodeJSON(req.Text, &updates); err != nil {
		return nil, fmt.Errorf("runtime: bad set-parity batch: %w", err)
	}
	for _, u := range updates {
		if err := n.setParity(u.Group, u.Idx, u.Node); err != nil {
			return nil, err
		}
	}
	return &wire.Message{Type: wire.MsgSetParityBatchOK, Arg: uint64(len(updates))}, nil
}
