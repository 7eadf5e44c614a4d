package runtime

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// chunkedCluster is testCluster with data-path options applied before Setup.
func chunkedCluster(t *testing.T, layout *cluster.Layout, chunkSize int) (*Coordinator, []*Node) {
	t.Helper()
	return sizedCluster(t, layout, 16, 64, chunkSize)
}

// sizedCluster is chunkedCluster with images of pages x pageSize bytes.
func sizedCluster(t *testing.T, layout *cluster.Layout, pages, pageSize, chunkSize int) (*Coordinator, []*Node) {
	t.Helper()
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
		addrs[i] = n.Addr()
	}
	t.Cleanup(func() {
		for _, n := range nodes {
			n.Close()
		}
	})
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, 12345)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetChunkSize(chunkSize)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	return coord, nodes
}

// readBlock reads a whole committed image (source "image", keyed by vmName)
// or parity block (source "parity", keyed by group) from the node at addr,
// dialed over dial (nil = TCP), over MsgReadChunk — the only way those bytes cross the wire, so every test
// that needs them as an oracle input comes through here. The chunk size is
// deliberately not a divisor of the test images: 300 bytes, or one byte short
// of 64 KiB once the first reply shows a block of several hundred KiB (the
// few tests with real-sized images would otherwise spend their time, under
// -race, on thousands of tiny reads). It returns the block, the replies' epoch
// (the committed epoch, on image reads) and their Arg (the serving keeper's
// parity index, on parity reads).
func readBlock(t *testing.T, dial transport.DialFunc, addr, source, vmName string, group int) ([]byte, uint64, int) {
	t.Helper()
	cs := uint64(300)
	conn, err := transport.DialWith(addr, 0, dial)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	asm := &wire.Assembler{}
	var epoch, arg uint64
	for i, count := 0, 1; i < count; i++ {
		resp, err := call(conn, &wire.Message{
			Type: wire.MsgReadChunk, Text: source, VM: vmName, Group: int32(group),
			Arg: uint64(i)<<32 | cs,
		})
		if err != nil {
			t.Fatalf("read %s chunk %d of %q/group %d: %v", source, i, vmName, group, err)
		}
		c, err := wire.DecodeChunk(resp.Payload)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 && cs == 300 && c.Total > 256<<10 {
			cs, i = 64<<10-1, -1
			continue
		}
		if i == 0 {
			count, epoch, arg = int(c.Count), resp.Epoch, resp.Arg
		} else if resp.Epoch != epoch || resp.Arg != arg {
			t.Fatalf("%s chunk %d replied epoch %d arg %d, chunk 0 said %d/%d", source, i, resp.Epoch, resp.Arg, epoch, arg)
		}
		if err := asm.Add(c); err != nil {
			t.Fatal(err)
		}
	}
	blk, err := asm.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return blk, epoch, int(arg)
}

// oracleDiff compares the cluster's committed state, read back over the
// wire, with two independent in-process implementations: every VM's
// committed image and epoch against the Shadow model (plain vm.Machine
// replay, no protocol), and every parity block against a core.MKeeper built
// from scratch over the shadow's images (whole-image encode, never the
// runtime's incremental chunk folds). It returns the first divergence.
func oracleDiff(t *testing.T, coord *Coordinator, shadow *Shadow) error {
	t.Helper()
	layout := coord.Layout()
	for _, v := range layout.VMs {
		img, epoch, _ := readBlock(t, coord.dialer, coord.addrs[v.Node], "image", v.Name, 0)
		if epoch != shadow.Epoch() {
			return fmt.Errorf("%q committed at epoch %d, shadow at %d", v.Name, epoch, shadow.Epoch())
		}
		if !bytes.Equal(img, shadow.vms[v.Name].committed) {
			return fmt.Errorf("%q committed image diverges from the shadow", v.Name)
		}
	}
	for _, g := range layout.Groups {
		images := map[string][]byte{}
		for _, m := range g.Members {
			images[m] = shadow.vms[m].committed
		}
		for idx, pn := range g.ParityNodes {
			ref, err := core.NewMKeeper(g.Index, idx, layout.Tolerance, images)
			if err != nil {
				t.Fatal(err)
			}
			blk, _, gotIdx := readBlock(t, coord.dialer, coord.addrs[pn], "parity", "", g.Index)
			if gotIdx != idx {
				return fmt.Errorf("node %d served parity[%d] of group %d, layout says [%d]", pn, gotIdx, g.Index, idx)
			}
			if !bytes.Equal(blk, ref.Parity()) {
				return fmt.Errorf("parity[%d] of group %d on node %d diverges from the in-process keeper", idx, g.Index, pn)
			}
		}
	}
	return nil
}

// shadowRounds drives the cluster and its shadow through n identical rounds.
func shadowRounds(t *testing.T, coord *Coordinator, shadow *Shadow, n int) {
	t.Helper()
	for round := 0; round < n; round++ {
		if err := coord.Step(50); err != nil {
			t.Fatal(err)
		}
		shadow.Step(50)
		if err := coord.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		shadow.Commit()
	}
}

// TestRoundsMatchInProcessOracle is the data path's differential test: after
// seeded rounds — plain, with a chunk size below the page size so every delta
// splits, and over RS m=2 so the GF folds are covered too — the
// state the cluster committed over sockets equals what the in-process
// implementations compute (see oracleDiff).
func TestRoundsMatchInProcessOracle(t *testing.T) {
	rs2 := func(t *testing.T) *cluster.Layout {
		l, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, tc := range []struct {
		name      string
		layout    func(*testing.T) *cluster.Layout
		chunkSize int
	}{
		{"plain", paperLayout, 0},
		{"split-every-delta", paperLayout, 48},
		{"rs2-split", rs2, 48},
	} {
		t.Run(tc.name, func(t *testing.T) {
			layout := tc.layout(t)
			coord, _ := chunkedCluster(t, layout, tc.chunkSize)
			shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
			if err != nil {
				t.Fatal(err)
			}
			shadowRounds(t, coord, shadow, 3)
			if err := oracleDiff(t, coord, shadow); err != nil {
				t.Fatal(err)
			}
			if st := coord.RoundStats(); st.ChunksShipped == 0 {
				t.Error("round reported no chunks shipped")
			}
			var sent, received int64
			for n := 0; n < layout.Nodes; n++ {
				st, err := coord.NodeStats(n)
				if err != nil {
					t.Fatal(err)
				}
				sent += st.ChunksShipped
				received += st.ChunksReceived
			}
			if sent == 0 || received == 0 {
				t.Errorf("chunk counters did not move: sent=%d received=%d", sent, received)
			}
		})
	}
}

// TestSkippedFoldFailsOracle is the negative control of the differential
// tests and of the soak battery's shadow invariant (the dedup soak included:
// its capture may leave pages out, and this is the proof that a page wrongly
// left out of parity would be seen): chunk 0 of one member's next stream is
// seeded into its keeper through the keeper's own fold with zero data, so the
// real chunk is dropped as a re-delivery and its fold never happens. The round
// still commits — and oracleDiff must notice.
func TestSkippedFoldFailsOracle(t *testing.T) {
	layout := paperLayout(t)
	const pages, pageSize, chunkSize = 16, 64, 48
	coord, nodes := chunkedCluster(t, layout, chunkSize)
	shadow, err := NewShadowWith(layout, pages, pageSize, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("clean round: %v", err)
	}
	if err := coord.Step(50); err != nil {
		t.Fatal(err)
	}
	shadow.Step(50)

	g := layout.Groups[0]
	member, keeperNode := g.Members[0], g.ParityNodes[0]
	host, _ := layout.VM(member)
	ms, err := nodes[host.Node].member(member)
	if err != nil {
		t.Fatal(err)
	}
	// The stream's shape depends only on which pages are dirty.
	next := &core.Delta{VMID: member, Runs: runsOf(ms.mem.Machine().DirtyPages())}
	planned := next.Chunks(pageSize, pages*pageSize, chunkSize)
	seed, _ := planned.Next()
	if seed.RawLen == 0 {
		t.Fatalf("%q has no dirty pages to lose", member)
	}
	ks := nodes[keeperNode].keepers[g.Index]
	ks.mu.Lock()
	seed.Data = make([]byte, seed.RawLen)
	_, err = ks.keeper.Fold(member, coord.Epoch()+1, coord.attempts+1, nodes[keeperNode].aborted.Load(), &seed)
	ks.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}

	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err == nil {
		t.Fatal("a skipped chunk fold went unnoticed by the oracle")
	} else {
		t.Logf("oracle caught it: %v", err)
	}
}

// TestRefusedBatchOpensNoStream: a batch naming a VM outside the group is
// refused by the keeper, and the refusal leaves nothing behind — no stream
// the next commit would find incomplete or of a stale epoch, which would get
// the keeper's node declared dead.
func TestRefusedBatchOpensNoStream(t *testing.T) {
	layout := paperLayout(t)
	const pages, pageSize = 16, 64
	coord, nodes := chunkedCluster(t, layout, 48)
	shadow, err := NewShadowWith(layout, pages, pageSize, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 1)
	g := layout.Groups[0]
	ghost := wire.EncodeChunk(&wire.Chunk{Total: pages * pageSize, Count: 1})
	_, err = nodes[g.ParityNodes[0]].handle(&wire.Message{Type: wire.MsgDeltaChunk, Epoch: 1, Group: 0, VM: "ghost", Arg: 99, Payload: ghost})
	if err == nil || !strings.Contains(err.Error(), `unknown member "ghost"`) {
		t.Fatalf("a batch from outside the group: %v", err)
	}
	shadowRounds(t, coord, shadow, 1)
	if dead := coord.RoundStats().DeadDuring; len(dead) != 0 {
		t.Fatalf("the refused batch got nodes %v declared dead at the next commit", dead)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// TestChunkedRecoveryAndRebalance exercises the full failure lifecycle with
// a non-default chunk size (reconstruction fetches, keeper rebuilds, and
// installs all travel through the chunk protocol): kill a node, recover,
// repair, rebalance, and keep checkpointing — committed state must survive
// the recovery unchanged.
func TestChunkedRecoveryAndRebalance(t *testing.T) {
	coord, nodes := chunkedCluster(t, paperLayout(t), 512)
	if err := coord.Step(80); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	victim := 1
	addr := nodes[victim].Addr()
	nodes[victim].Close()
	if _, err := coord.RecoverNodes(victim); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for name, sum := range committed {
		if after[name] != sum {
			t.Errorf("%q checksum changed across chunked recovery", name)
		}
	}
	// Repair the node on its old address and rebalance over the chunked path.
	rn, err := NewNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rn.Close() })
	if err := coord.Repair(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rebalance(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

// TestDuplicateChunkFoldsOnce proves keeper-side idempotency: delivering the
// same chunk frame twice folds it exactly once (a second XOR fold would
// cancel the first), with the duplicate acknowledged and counted.
func TestDuplicateChunkFoldsOnce(t *testing.T) {
	layout := paperLayout(t)
	coord, _ := chunkedCluster(t, layout, 0)
	const pages, pageSize = 16, 64

	// Pick group 0's first member and first parity node.
	g := layout.Groups[0]
	member := g.Members[0]
	parityNode := g.ParityNodes[0]

	// A reference keeper over the same (all-zero) initial images.
	initial := map[string][]byte{}
	for _, m := range g.Members {
		initial[m] = make([]byte, pages*pageSize)
	}
	ref, err := core.NewMKeeper(0, 0, layout.Tolerance, initial)
	if err != nil {
		t.Fatal(err)
	}

	// One two-chunk stream for epoch 1, second chunk sent twice.
	img := pages * pageSize
	data := make([]byte, img/2)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	chunks := []wire.Chunk{
		{Offset: 0, Total: uint64(img), Index: 0, Count: 2, RawLen: uint32(len(data)), Data: data},
		{Offset: uint64(img / 2), Total: uint64(img), Index: 1, Count: 2, RawLen: uint32(len(data)), Data: data},
	}
	conn, err := transport.Dial(coord.addrs[parityNode])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(c *wire.Chunk) {
		t.Helper()
		resp, err := call(conn, &wire.Message{
			Type: wire.MsgDeltaChunk, Epoch: 1, Group: 0, VM: member,
			Payload: wire.EncodeChunk(c),
		})
		if err != nil {
			t.Fatal(err)
		}
		if resp.Type != wire.MsgDeltaChunkOK {
			t.Fatalf("reply %v", resp.Type)
		}
	}
	send(&chunks[0])
	send(&chunks[1])
	send(&chunks[1]) // exact re-delivery
	if resp, err := call(conn, &wire.Message{Type: wire.MsgCommit, Epoch: 1}); err != nil || resp.Type != wire.MsgCommitOK {
		t.Fatalf("commit: %v %v", resp, err)
	}

	// Reference folds each chunk once.
	pendingBuf := make([]byte, img)
	for _, c := range chunks {
		if err := ref.FoldInto(pendingBuf, member, int(c.Offset), c.Data); err != nil {
			t.Fatal(err)
		}
	}
	if err := ref.DrainPendingRanges(pendingBuf, map[string]uint64{member: 1}, [][2]int{{0, img}}); err != nil {
		t.Fatal(err)
	}

	if blk, _, _ := readBlock(t, nil, coord.addrs[parityNode], "parity", "", 0); !bytes.Equal(blk, ref.Parity()) {
		t.Fatal("duplicate chunk changed parity: double fold detected")
	}
	st, err := coord.NodeStats(parityNode)
	if err != nil {
		t.Fatal(err)
	}
	if st.DupChunks != 1 {
		t.Errorf("DupChunks = %d, want 1", st.DupChunks)
	}
	if st.ChunksReceived != 2 {
		t.Errorf("ChunksReceived = %d, want 2", st.ChunksReceived)
	}
}

// TestReadChunkServesImagesAndParity drives the chunked read protocol
// directly: image and parity reads must reassemble to exactly the bytes the
// serving node holds in process, with the epoch and parity index stamped on
// every reply, and bad requests must error cleanly.
func TestReadChunkServesImagesAndParity(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := chunkedCluster(t, layout, 0)
	if err := coord.Step(60); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	v := layout.VMs[0]
	ms, err := nodes[v.Node].member(v.Name)
	if err != nil {
		t.Fatal(err)
	}
	img, epoch, _ := readBlock(t, nil, coord.addrs[v.Node], "image", v.Name, 0)
	if !bytes.Equal(img, ms.mem.CommittedImage()) {
		t.Fatal("chunked image read diverges from the member's committed image")
	}
	if epoch != ms.mem.Epoch() {
		t.Fatalf("chunk reads carried epoch %d, member is at %d", epoch, ms.mem.Epoch())
	}

	g := layout.Groups[v.Group]
	keeper := nodes[g.ParityNodes[0]].keepers[g.Index].keeper
	blk, _, idx := readBlock(t, nil, coord.addrs[g.ParityNodes[0]], "parity", "", g.Index)
	if !bytes.Equal(blk, keeper.Parity()) {
		t.Fatal("chunked parity read diverges from the keeper's parity block")
	}
	if idx != keeper.ParityIndex() {
		t.Fatalf("parity reads carried index %d, keeper holds [%d]", idx, keeper.ParityIndex())
	}

	// Out-of-range index, unknown source, and a zero chunk size must error.
	conn, err := transport.Dial(coord.addrs[v.Node])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	const cs = 300
	count := uint64(wire.ChunkCount(len(img), cs))
	for name, req := range map[string]*wire.Message{
		"out-of-range index": {Type: wire.MsgReadChunk, Text: "image", VM: v.Name, Arg: count<<32 | cs},
		"unknown source":     {Type: wire.MsgReadChunk, Text: "disk", VM: v.Name, Arg: cs},
		"zero chunk size":    {Type: wire.MsgReadChunk, Text: "image", VM: v.Name},
	} {
		if _, err := call(conn, req); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
}

// TestDeltaChunksCoverDelta pins the splitter: chunk ranges must tile exactly
// the staged pages' bytes at image offsets, within the configured size, never
// crossing from one dirty run into the next.
func TestDeltaChunksCoverDelta(t *testing.T) {
	const pages, pageSize = 8, 128
	staged := []int{0, 1, 2, 5, 7} // two runs + a tail page
	d := &core.Delta{VMID: "vm", Epoch: 1, Runs: runsOf(staged)}
	want := make(map[int]bool) // image offsets the capture covers
	for _, pi := range staged {
		for j := 0; j < pageSize; j++ {
			want[pi*pageSize+j] = true
		}
	}
	var chunks []wire.Chunk
	cursor := d.Chunks(pageSize, pages*pageSize, 100)
	for c, ok := cursor.Next(); ok; c, ok = cursor.Next() {
		chunks = append(chunks, c)
	}
	if raw := d.PageCount() * pageSize; raw != len(want) {
		t.Fatalf("plan covers %d raw bytes, capture has %d", raw, len(want))
	}
	got := make(map[int]bool)
	for ci, c := range chunks {
		if c.RawLen == 0 || c.RawLen > 100 || c.Data != nil {
			t.Fatalf("chunk %d plans %d bytes (chunk size 100) with data %v", ci, c.RawLen, c.Data != nil)
		}
		if int(c.Total) != pages*pageSize || int(c.Index) != ci || int(c.Count) != len(chunks) {
			t.Fatalf("chunk %d header = %+v", ci, c)
		}
		for off := int(c.Offset); off < int(c.Offset)+int(c.RawLen); off++ {
			if !want[off] {
				t.Fatalf("chunk %d covers offset %d, which is not dirty", ci, off)
			}
			if got[off] {
				t.Fatalf("offset %d covered twice", off)
			}
			got[off] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("chunks cover %d bytes, capture has %d", len(got), len(want))
	}

	// Empty capture: a single zero-length chunk still carries the shape.
	empty := (&core.Delta{VMID: "vm", Epoch: 2}).Chunks(pageSize, pages*pageSize, 100)
	first, _ := empty.Next()
	if _, more := empty.Next(); more || empty.Count() != 1 || first.Count != 1 || first.RawLen != 0 {
		t.Fatalf("empty capture: %d chunks, the first %+v", empty.Count(), first)
	}
}

// runsOf is the maximal runs of a sorted page list, a staged capture's form.
func runsOf(pages []int) []core.PageRun {
	var runs []core.PageRun
	for _, pi := range pages {
		if n := len(runs); n > 0 && runs[n-1].First+runs[n-1].Len == pi {
			runs[n-1].Len++
		} else {
			runs = append(runs, core.PageRun{First: pi, Len: 1})
		}
	}
	return runs
}

// TestChunkSizeValidation covers the setting's input edge and what a refused
// configure leaves behind. A configure is refused before it touches the node,
// whether its chunk size is negative (a second coordinator's Setup fails) or
// its assignment fails partway (the node's own assignment plus a VM of no
// pages). The node keeps the very members and keepers it had, its epochs, its
// abort floor and its chunk size, and the next round commits state equal to
// the in-process oracle.
func TestChunkSizeValidation(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := chunkedCluster(t, layout, 48)
	shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 2)
	// An aborted attempt raises every node's floor above zero, so a configure
	// that resets it shows.
	floor := nextAttempt(coord)
	for i, n := range nodes {
		if _, err := n.handle(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1, Arg: floor}); err != nil {
			t.Fatalf("abort node %d: %v", i, err)
		}
	}
	state := func() string {
		n := nodes[0]
		n.mu.Lock()
		defer n.mu.Unlock()
		return fmt.Sprintf("id %d, chunk %d, floor %d, members %v, keepers %v, held %d",
			n.id, n.chunkSize, n.aborted.Load(), n.members, n.keepers, len(n.held))
	}
	before := state()

	rogue, err := NewCoordinator(layout.Clone(), coord.addrs, 16, 64, 1)
	if err != nil {
		t.Fatal(err)
	}
	defer rogue.Close()
	rogue.SetChunkSize(-1)
	if err := rogue.Setup(); err == nil {
		t.Fatal("Setup with a negative chunk size succeeded")
	}
	if after := state(); after != before {
		t.Fatalf("configure with a negative chunk size changed node 0:\n was %s\n now %s", before, after)
	}

	cfg := coord.nodeConfig(0)
	cfg.VMs = append(cfg.VMs, VMConfig{Name: "empty", Pages: 0, PageSize: 64, Group: 0})
	text, err := encodeJSON(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].handle(&wire.Message{Type: wire.MsgConfigure, Text: text}); err == nil {
		t.Fatal("configure with a VM of no pages succeeded")
	}
	if after := state(); after != before {
		t.Fatalf("configure failing partway changed node 0:\n was %s\n now %s", before, after)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("after the refused configures: %v", err)
	}
	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("round after the refused configures: %v", err)
	}
}

// call sends req over conn and returns its reply in a message of its own.
func call(conn *transport.Conn, req *wire.Message) (*wire.Message, error) {
	resp := new(wire.Message)
	if err := conn.CallInto(req, resp); err != nil {
		return nil, err
	}
	return resp, nil
}
