package runtime

import (
	"cmp"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/core"
	"dvdc/internal/obs"
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
	Dialer     transport.DialFunc   // outbound peer connections (nil = TCP)
	Listen     transport.ListenFunc // the daemon's own listener (nil = TCP)
	RPCTimeout time.Duration        // bounds every peer call: delta ships, recovery pulls (0 = none)

	// Observability (all optional): traced requests get per-handler spans in
	// this node's lane, and the registry gets the node's peer-pool health
	// series and RPC latency histograms.
	Tracer   *obs.Tracer
	Registry *obs.Registry
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
		chunkSize:  resolveChunkSize(0),
		rpcTimeout: opts.RPCTimeout,
		dialer:     opts.Dialer,
		tracer:     opts.Tracer,
		registry:   opts.Registry,
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

// mountBufpoolStats exposes the process-wide buffer pool counters on a
// registry. Counters are global to the pool, so re-binding from every node
// sharing a registry is idempotent (CounterFunc replaces the reader).
func mountBufpoolStats(reg *obs.Registry) {
	reg.CounterFunc("dvdc_bufpool_gets_total", func() float64 { return float64(bufpool.Snapshot().Gets) })
	reg.CounterFunc("dvdc_bufpool_misses_total", func() float64 { return float64(bufpool.Snapshot().Misses) })
	reg.CounterFunc("dvdc_bufpool_puts_total", func() float64 { return float64(bufpool.Snapshot().Puts) })
	reg.CounterFunc("dvdc_bufpool_oversize_total", func() float64 { return float64(bufpool.Snapshot().Oversize) })
}

// Addr returns the node's listen address.
func (n *Node) Addr() string { return n.server.Addr() }

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
	})
	n.pools[id] = p
	return p, nil
}

// callPeer routes a request to another node, its reply decoded into resp,
// short-circuiting self-calls to the local handler on a copy of req, which a
// handler may rewrite into its reply (no loopback round trip, no lock-order
// hazards). The pool re-dials and retries once when a cached connection turns
// out stale, so a daemon replaced on the same address is reachable again.
func (n *Node) callPeer(id int, req, resp *wire.Message) error {
	if id == n.nodeID() {
		cp := *req
		r, err := n.handle(&cp)
		if err == nil {
			*resp = *r
		}
		return err
	}
	p, err := n.pool(id)
	if err != nil {
		return err
	}
	return p.CallInto(req, resp)
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
// node's lane (child of the caller's RPC-attempt span), then dispatch; an
// untraced one builds no span name or lane. A configure's lane is the node
// it names, not the identity it replaces (a fresh daemon's is 0). Locks are
// taken by the individual operations, never across peer calls, to avoid
// distributed deadlock.
func (n *Node) handle(req *wire.Message) (*wire.Message, error) {
	ctx := obs.SpanContext{Trace: req.Trace, Span: req.Span}
	n.mu.Lock()
	tr, id := n.tracer, n.id
	n.mu.Unlock()
	if tr == nil || !ctx.Valid() {
		return n.dispatch(ctx, req)
	}
	if req.Type == wire.MsgConfigure {
		var cfg NodeConfig
		if decodeJSON(req.Text, &cfg) == nil {
			id = cfg.NodeID
		}
	}
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

// checkChunkSize rejects a chunk-size setting arriving from outside the node
// (a configure message): the encoding is 0 = default, > 0 = bytes.
func checkChunkSize(v int) error {
	if v < 0 {
		return fmt.Errorf("runtime: chunk size %d: want 0 (default) or a positive byte count", v)
	}
	return nil
}

// resolveChunkSize maps the configuration encoding to the effective chunk
// payload size: 0 selects wire.DefaultChunkSize, positive values pass
// through.
func resolveChunkSize(v int) int {
	if v <= 0 {
		return wire.DefaultChunkSize
	}
	return v
}

func (n *Node) onStep(req *wire.Message) (*wire.Message, error) {
	members := n.snapshotMembers()
	parallelDo(len(members), 0, func(i int) error { //nolint:errcheck // a step cannot fail
		ms := members[i]
		ms.mu.Lock()
		defer ms.mu.Unlock()
		for s := uint64(0); s < req.Arg; s++ {
			ms.workload.Step(ms.mem.Machine())
		}
		return nil
	})
	return &wire.Message{Type: wire.MsgStepOK}, nil
}

// onPrepare stages a capture for every hosted member and ships its delta to
// the parity nodes of the member's group, members concurrently: a ship takes
// the member's lock only to cut and render one batch, so deltas bound for
// distinct peers overlap on the wire. A failure leaves other members staged;
// the coordinator's abort takes them back.
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
		if err != nil {
			ms.mu.Unlock()
			return fmt.Errorf("runtime: node %d: %w", id, err)
		}
		// The next Stage reuses d's run list: the cursor and the page count
		// read it now, the workers under ms.mu once d is found still staged.
		sh := shipment{n: n, ms: ms, d: d, parity: append([]int(nil), ms.cfg.ParityNodes...), budget: max(cs, chunkBatchBudget) + wire.ChunkHeaderLen,
			chunks: d.Chunks(ms.cfg.PageSize, ms.cfg.Pages*ms.cfg.PageSize, cs), pages: d.PageCount(), started: 1}
		ms.mu.Unlock()
		// One span per shipment, so the timeline shows them overlapping; batch
		// messages carry its context (the pool re-stamps Span per RPC attempt).
		span := tr.Child(ctx, "ship "+d.VMID, lane)
		defer func() { span.FinishErr(shipErr) }()
		sctx := span.ContextOr(ctx)
		sh.req = wire.Message{Type: wire.MsgDeltaChunk, Epoch: d.Epoch, Group: int32(ms.cfg.Group), VM: d.VMID, Arg: req.Arg, Trace: sctx.Trace, Span: sctx.Span}
		// The calling goroutine is the first worker; the counts hold if it fails.
		sh.workers.Add(1)
		sh.work()
		sh.workers.Wait()
		if span != nil {
			span.SetAttr("bytes", fmt.Sprint(sh.wireB))
			span.SetAttr("chunks", fmt.Sprint(sh.chunks.Count()))
			span.SetAttr("batches", fmt.Sprint(sh.batches))
		}
		peers := int64(len(sh.parity))
		shares[i], shipErr = ShipCounts{BytesShipped: int64(sh.wireB) * peers, ChunksShipped: int64(sh.chunks.Count()) * peers, DeltaRawBytes: int64(sh.pages*ms.cfg.PageSize) * peers}, sh.err
		if dedup {
			shares[i].DedupHits = int64(unchanged)
			shares[i].DedupMisses = int64(sh.pages)
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

// chunkPipelineWidth bounds a shipment's workers, and so its batches in
// flight. The keeper folds a batch before it replies, so this sender-side
// pipeline is what overlaps network transfer with the keeper's fold; it is
// small enough that one stream cannot monopolize a connection pool.
const chunkPipelineWidth = 4

// chunkBatchBudget floors the wire bytes packed into one MsgDeltaChunk
// message. The chunk size bounds fold granularity and per-chunk buffer
// memory; the batch budget bounds round trips: chunks follow dirty-page runs,
// so a scattered delta yields many frames far smaller than chunkSize, and one
// RPC per frame would make framing and syscalls dominate the round. Every
// chunk in a batch keeps its own offset and CRC and is folded individually;
// a chunk size above the floor gets one chunk per batch.
const chunkBatchBudget = 256 << 10

// shipment ships ms's staged capture d to its group's parity peers as chunk
// frames packed into batches, one message each, stamped with the round
// attempt. Up to chunkPipelineWidth workers cut each batch from the cursor and
// render it under ms.mu — per chunk a header slot, live XOR committed behind
// it (core.Member.DeltaInto), the header sealed with a CRC of bytes still in
// cache — into a buffer they own, and send it from a request and into a reply
// they own: a batch allocates nothing. A worker stops at its next batch once
// d is no longer staged. The fields from chunks on are guarded by ms.mu.
type shipment struct {
	n                       *Node
	ms                      *memberState
	d                       *core.Delta
	parity                  []int
	pages, budget           int          // the capture's page count; a batch's bytes
	req                     wire.Message // every batch's message but its payload
	workers                 sync.WaitGroup
	chunks                  core.ChunkCursor
	started, batches, wireB int   // workers started; batches rendered and their bytes
	err                     error // the first failure, which stops every worker
}

// work is one worker: it sends each batch it takes to the parity peers one
// after the other, starting at a different one each batch (the workers are
// what overlaps transfers), until the cursor is done or the shipment failed.
func (s *shipment) work() {
	defer s.workers.Done()
	req, reply := s.req, wire.Message{}
	var err error
	buf, k := s.next(nil, nil)
	for ; k > 0; buf, k = s.next(buf, err) {
		req.Payload = buf
		for j := 0; j < len(s.parity) && err == nil; j++ {
			peer := s.parity[(k+j)%len(s.parity)]
			if err = s.n.callPeer(peer, &req, &reply); err == nil && reply.Type != wire.MsgDeltaChunkOK {
				err = fmt.Errorf("unexpected reply %v", reply.Type)
			}
			if err != nil {
				err = fmt.Errorf("runtime: shipping chunk batch %d of %q to node %d: %w", k, s.d.VMID, peer, err)
			}
		}
	}
	bufpool.Put(buf)
}

// next records failed, then cuts the next batch under ms.mu and renders it
// into buf, grown if need be: it returns buf and the batch's number, 0 once
// the shipment failed, d is no longer staged or the cursor is done. While
// batches remain it starts another worker, up to chunkPipelineWidth.
func (s *shipment) next(buf []byte, failed error) ([]byte, int) {
	s.ms.mu.Lock()
	defer s.ms.mu.Unlock()
	// An empty render checks that d is still staged before the cursor reads
	// its run list, which the next Stage reuses.
	if s.err = cmp.Or(s.err, failed, s.ms.mem.DeltaInto(s.d, nil, 0)); s.err != nil {
		return buf, 0
	}
	first, ok := s.chunks.Next()
	if !ok {
		return buf, 0
	}
	// The batch is the frames the budget admits (first alone may pass it),
	// sized on a copy of the cursor; more tells whether any remain after it.
	n, rest := wire.ChunkHeaderLen+int(first.RawLen), s.chunks
	c, more := rest.Next()
	for ; more && n+wire.ChunkHeaderLen+int(c.RawLen) <= s.budget; c, more = rest.Next() {
		n += wire.ChunkHeaderLen + int(c.RawLen)
	}
	if cap(buf) < n {
		bufpool.Put(buf)
		buf = bufpool.Get(n)
	}
	buf = buf[:n]
	for c, off := first, 0; ; c, _ = s.chunks.Next() {
		frame := buf[off : off+wire.ChunkHeaderLen+int(c.RawLen)]
		s.ms.mem.DeltaInto(s.d, frame[wire.ChunkHeaderLen:], int(c.Offset)) //nolint:errcheck // staged, checked above
		wire.SealChunk(frame, &c)
		if off += len(frame); off == n {
			break
		}
	}
	s.batches++
	s.wireB += n
	if more && s.started < chunkPipelineWidth {
		s.started++
		s.workers.Add(1)
		go s.work()
	}
	return buf, s.batches
}

// onDeltaChunk folds delta chunks into the keeper's staged next-epoch pages
// — the receiving half of the ship path. The payload is a batch of
// self-delimiting chunk frames; each is decoded, verified against its stream
// and folded under ks.mu before the next is decoded, and the reply goes out
// once the batch is folded. A chunk counts as delivered exactly when it is
// folded, so a batch rejected partway keeps the chunks before the bad frame
// and its re-send folds only the rest. The fold lands beside the committed
// parity pages: abort drops the staged pages, commit swaps them in.
// Redelivered chunks (the transport retries once over a fresh dial, resending
// whole batches) are detected by index and skipped, since a second XOR fold
// would cancel the first.
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
	// The reply is req rewritten (transport.Handler), keeping its Epoch, VM and
	// trace context: acknowledging a batch allocates nothing.
	req.Type, req.Group, req.Arg, req.Text, req.Payload = wire.MsgDeltaChunkOK, 0, 0, "", nil
	return req, nil
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
