package runtime

import (
	"fmt"
	"sync/atomic"

	"dvdc/internal/bufpool"
	"dvdc/internal/core"
	"dvdc/internal/obs"
	"dvdc/internal/parity"
	"dvdc/internal/wire"
)

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
	var resp wire.Message
	if err := n.callPeer(src.node, req, &resp); err != nil {
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
		var resp wire.Message
		err = n.callPeer(e.Target, &wire.Message{Type: wire.MsgReconstruct, Group: int32(cfg.Group), Text: text, Trace: ctx.Trace, Span: ctx.Span}, &resp)
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
