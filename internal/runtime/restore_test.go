package runtime

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"maps"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// spareNodes starts one empty daemon per opts next to a running cluster and
// configures each as one more node: it knows every peer (override replaces
// addresses, to put a proxy in front of one), the other spares and itself,
// hosts nothing, and uses chunkSize. Restores, re-homes and moves are driven
// on spares directly, so a test chooses which shards count as lost without
// killing anything.
func spareNodes(t *testing.T, coord *Coordinator, chunkSize int, override map[int]string, opts ...NodeOptions) ([]*Node, []int) {
	t.Helper()
	peers := maps.Clone(coord.addrs)
	var nodes []*Node
	var ids []int
	for i, o := range opts {
		n, err := NewNodeWith("127.0.0.1:0", o)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		id := len(coord.addrs) + i
		peers[id] = n.Addr()
		nodes, ids = append(nodes, n), append(ids, id)
	}
	maps.Copy(peers, override)
	for i, n := range nodes {
		text, err := encodeJSON(NodeConfig{NodeID: ids[i], Peers: peers, ChunkSize: chunkSize})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := n.handle(&wire.Message{Type: wire.MsgConfigure, Text: text}); err != nil {
			t.Fatal(err)
		}
	}
	return nodes, ids
}

// spareNode is spareNodes for one spare.
func spareNode(t *testing.T, coord *Coordinator, chunkSize int, opts NodeOptions, override map[int]string) (*Node, int) {
	t.Helper()
	nodes, ids := spareNodes(t, coord, chunkSize, override, opts)
	return nodes[0], ids[0]
}

// withReadSlot sets readSlot for the rest of the test, so small images span
// several slots.
func withReadSlot(t *testing.T, n int) {
	prev := readSlot
	readSlot = n
	t.Cleanup(func() { readSlot = prev })
}

// lostVM names VM vmName, to be rebuilt on node target.
func lostVM(coord *Coordinator, vmName string, target int) lostElement {
	v, _ := coord.Layout().VM(vmName)
	vc := coord.vmConfig(v)
	return lostElement{VM: &vc, Target: target}
}

// rebuildOn asks decoder to rebuild lost elements of group g, at the
// cluster's committed epoch, from the shards the two maps name.
func rebuildOn(t *testing.T, decoder *Node, coord *Coordinator, g cluster.Group, survivors map[string]int, parityPeers map[int]int, lost ...lostElement) error {
	t.Helper()
	text, err := encodeJSON(rebuildConfig{
		Group: g.Index, Members: g.Members, Tolerance: coord.Layout().Tolerance, Pages: coord.pages, PageSize: coord.pageSize,
		Epoch: coord.Epoch(), Survivors: survivors, ParityPeers: parityPeers, Lost: lost,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = decoder.handle(&wire.Message{Type: wire.MsgReconstruct, Group: int32(g.Index), Text: text})
	return err
}

// reconstructOn asks target to rebuild vmName of group g from the shards the
// two maps name.
func reconstructOn(t *testing.T, target *Node, coord *Coordinator, g cluster.Group, vmName string, survivors map[string]int, parityPeers map[int]int) error {
	t.Helper()
	return rebuildOn(t, target, coord, g, survivors, parityPeers, lostVM(coord, vmName, target.nodeID()))
}

// heldBlocks counts the elements a node holds for handoffs.
func heldBlocks(n *Node) int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return len(n.held)
}

// TestStreamedRestoreMatchesReconstructMembers holds the streaming combine to
// the whole-group solver it replaced on the restore path. On a live loopback
// cluster, for every single and double loss of an RS(3,2) group's five shards
// (member+member, member+parity, parity+parity) and every single loss of an
// XOR group's four, one rebuild runs on a spare: it decodes every lost
// element from exactly the shards left in one pass, adopts the first and
// hands the second to a second spare. Images must equal
// core.ReconstructMembers over the same shards, parity blocks a
// core.NewMKeeper over all images, and nothing stays held. On 1 KiB images,
// chunks and read slots are both one page, a size that does not divide the
// image, or one larger than the image. At the real readSlot and the default
// chunk, a 400 KiB image ends mid-way through its second slot.
func TestStreamedRestoreMatchesReconstructMembers(t *testing.T) {
	rs2, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	type cut struct{ chunk, slot, pages, pageSize int }
	for _, tc := range []struct {
		name   string
		layout *cluster.Layout
	}{{"rs-m2", rs2}, {"xor-m1", paperLayout(t)}} {
		for _, c := range []cut{{64, 64, 16, 64}, {300, 300, 16, 64}, {4096, 4096, 16, 64}, {0, readSlot, 100, 4096}} {
			name := fmt.Sprintf("%s/chunk-%d", tc.name, c.chunk)
			if c.chunk == 0 {
				name = fmt.Sprintf("%s/slot-%d/image-%d", tc.name, c.slot, c.pages*c.pageSize)
			}
			t.Run(name, func(t *testing.T) {
				if n := c.pages * c.pageSize; c.chunk == 0 && (n/c.slot != 1 || n%c.slot == 0) {
					t.Fatalf("a %d-byte image is not one full %d-byte slot and a partial one", n, c.slot)
				}
				withReadSlot(t, c.slot)
				cs := c.chunk
				coord, _ := sizedCluster(t, tc.layout, c.pages, c.pageSize, cs)
				for round := 0; round < 2; round++ {
					if err := coord.Step(60); err != nil {
						t.Fatal(err)
					}
					if err := coord.Checkpoint(); err != nil {
						t.Fatal(err)
					}
				}
				layout := coord.Layout()
				g := layout.Groups[0]
				k, m := len(g.Members), layout.Tolerance
				images := map[string][]byte{}
				hosts := map[string]int{}
				for _, name := range g.Members {
					v, _ := layout.VM(name)
					hosts[name] = v.Node
					images[name], _, _ = readBlock(t, coord.addrs[v.Node], "image", name, 0)
				}
				blocks := map[int][]byte{}
				for idx, pn := range g.ParityNodes {
					blocks[idx], _, _ = readBlock(t, coord.addrs[pn], "parity", "", g.Index)
					ref, err := core.NewMKeeper(g.Index, idx, m, images)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(blocks[idx], ref.Parity()) {
						t.Fatalf("parity[%d] on node %d diverges from the in-process keeper before any loss", idx, pn)
					}
				}
				// The decoder adopts the first lost element, the other spare takes
				// the second from it.
				spares, spareIDs := spareNodes(t, coord, cs, nil, NodeOptions{}, NodeOptions{})

				lose := func(erased []int) {
					survivors, parityPeers := map[string]int{}, map[int]int{}
					survivorImgs, aliveBlocks := map[string][]byte{}, map[int][]byte{}
					var lost []lostElement
					var lostVMs []string
					for shard := 0; shard < k+m; shard++ {
						gone := slices.Contains(erased, shard)
						target := spareIDs[len(lost)%len(spares)]
						switch {
						case shard < k && gone:
							lostVMs = append(lostVMs, g.Members[shard])
							lost = append(lost, lostVM(coord, g.Members[shard], target))
						case shard < k:
							survivors[g.Members[shard]] = hosts[g.Members[shard]]
							survivorImgs[g.Members[shard]] = images[g.Members[shard]]
						case gone:
							lost = append(lost, lostElement{Parity: shard - k, Target: target})
						default:
							parityPeers[shard-k] = g.ParityNodes[shard-k]
							aliveBlocks[shard-k] = blocks[shard-k]
						}
					}
					if err := rebuildOn(t, spares[0], coord, g, survivors, parityPeers, lost...); err != nil {
						t.Fatalf("erased %v: rebuild: %v", erased, err)
					}
					if n := heldBlocks(spares[0]); n != 0 {
						t.Errorf("erased %v: the decoder still holds %d element(s)", erased, n)
					}
					var want map[string][]byte
					if len(lostVMs) > 0 {
						var err error
						if want, err = core.ReconstructMembers(m, g.Members, survivorImgs, aliveBlocks, lostVMs); err != nil {
							t.Fatalf("erased %v: oracle: %v", erased, err)
						}
					}
					for i, e := range lost {
						target := spares[i%len(spares)]
						if e.VM == nil {
							got, _, gotIdx := readBlock(t, target.Addr(), "parity", "", g.Index)
							if gotIdx != e.Parity || !bytes.Equal(got, blocks[e.Parity]) {
								t.Errorf("erased %v: streamed parity[%d] (served as [%d]) diverges from the in-process keeper", erased, e.Parity, gotIdx)
							}
							target.mu.Lock()
							delete(target.keepers, g.Index) // one block of a group per node: make room for the next
							target.mu.Unlock()
							continue
						}
						name := e.VM.Name
						got, epoch, _ := readBlock(t, target.Addr(), "image", name, 0)
						if !bytes.Equal(got, want[name]) {
							t.Errorf("erased %v: streamed image of %q diverges from core.ReconstructMembers", erased, name)
						}
						if epoch != coord.Epoch() {
							t.Errorf("erased %v: %q adopted at epoch %d, cluster committed %d", erased, name, epoch, coord.Epoch())
						}
						if _, err := target.handle(&wire.Message{Type: wire.MsgEvict, VM: name}); err != nil {
							t.Fatal(err)
						}
					}
				}
				for a := 0; a < k+m; a++ {
					lose([]int{a})
					for b := a + 1; b < k+m && m >= 2; b++ {
						lose([]int{a, b})
					}
				}
			})
		}
	}
}

// TestRestoreReadsOneRPCPerSlot: a restore pulls each of its k shards a read
// slot at a time, not a chunk at a time — k·⌈N/readSlot⌉ MsgReadChunk
// requests for an N-byte image, whatever the chunk size. A 400 KiB image is 2
// slots per shard, not 7 default 64 KiB chunks, nor one 1 MiB chunk.
func TestRestoreReadsOneRPCPerSlot(t *testing.T) {
	const pages, pageSize = 100, 4096
	for _, cs := range []int{0, 1 << 20} {
		t.Run(fmt.Sprintf("chunk-%d", cs), func(t *testing.T) {
			coord, _ := sizedCluster(t, paperLayout(t), pages, pageSize, cs)
			if err := coord.Step(60); err != nil {
				t.Fatal(err)
			}
			if err := coord.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			var meter frameMeter
			spare, _ := spareNode(t, coord, cs, NodeOptions{Dialer: meter.dial}, nil)
			layout := coord.Layout()
			g := layout.Groups[0]
			survivors := map[string]int{}
			for _, name := range g.Members[1:] {
				v, _ := layout.VM(name)
				survivors[name] = v.Node
			}
			if err := reconstructOn(t, spare, coord, g, g.Members[0], survivors, map[int]int{0: g.ParityNodes[0]}); err != nil {
				t.Fatal(err)
			}
			want := int64(len(g.Members) * wire.ChunkCount(pages*pageSize, readSlot))
			if got := meter.reads.Load(); got != want {
				t.Errorf("restoring a %d-byte image from %d shards sent %d read requests; want %d, one per %d-byte slot",
					pages*pageSize, len(g.Members), got, want, readSlot)
			}
		})
	}
}

// TestRecoveryReadsEachShardOnce counts the read requests one RecoverNodes(0,
// 1) sends to each node of the 7-node RS(3,2) layout, where every damaged
// group lost one or two of its five elements. Each group's decoder reads each
// of the k shards it decodes from once, for all of the group's lost elements
// together, and the target of a second lost element reads it once from the
// decoder: a node serves one image's slots per shard it supplies and per
// element it hands off, nothing more.
func TestRecoveryReadsEachShardOnce(t *testing.T) {
	const pages, pageSize, slot = 16, 64, 256
	withReadSlot(t, slot)
	layout, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	var meter frameMeter
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNodeWith("127.0.0.1:0", NodeOptions{Dialer: meter.dial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, 12345)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(60); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	down := []int{0, 1}
	plan, err := layout.PlanRecovery(down...)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degraded {
		t.Fatal("the plan co-locates elements; the test wants every read to cross a socket")
	}
	slots := int64(wire.ChunkCount(pages*pageSize, slot))
	want := map[int]int64{}
	handoffs := 0
	lost := map[int][]cluster.Step{}
	for _, s := range plan.Steps {
		lost[s.Group] = append(lost[s.Group], s)
	}
	for gi, steps := range lost {
		g := layout.Groups[gi]
		// The decoder's k shards: surviving members in sorted order, then
		// surviving parity blocks by index.
		var shards []int
		sorted := slices.Clone(g.Members)
		slices.Sort(sorted)
		for _, m := range sorted {
			if v, _ := layout.VM(m); !slices.Contains(down, v.Node) {
				shards = append(shards, v.Node)
			}
		}
		for _, pn := range g.ParityNodes {
			if !slices.Contains(down, pn) {
				shards = append(shards, pn)
			}
		}
		for _, node := range shards[:len(g.Members)] {
			want[node] += slots
		}
		want[steps[0].TargetNode] += int64(len(steps)-1) * slots
		handoffs += len(steps) - 1
	}
	if handoffs == 0 {
		t.Fatal("no damaged group lost two elements; the test wants handoffs")
	}
	for _, v := range down {
		nodes[v].Close()
	}
	before := map[int]int64{}
	for node, addr := range addrs {
		before[node] = meter.readsFrom(addr)
	}
	if _, err := coord.RecoverNodes(down...); err != nil {
		t.Fatal(err)
	}
	for node := 0; node < layout.Nodes; node++ {
		if got := meter.readsFrom(addrs[node]) - before[node]; got != want[node] {
			t.Errorf("node %d served %d read requests; want %d (%d slots per shard it supplies and element it hands off)",
				node, got, want[node], slots)
		}
	}
}

// mortalDialer is a node's outbound dialer whose connections to one address
// die: once budget reply bytes have been read from the victim, the connection
// in use is cut mid-frame and every later dial is refused — what a peer
// crashing in the middle of a pull looks like from the puller's side.
type mortalDialer struct {
	victim string
	budget atomic.Int64
}

func (d *mortalDialer) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if addr != d.victim {
		return net.DialTimeout("tcp", addr, timeout)
	}
	if d.budget.Load() <= 0 {
		return nil, fmt.Errorf("dial %s: connection refused (victim is dead)", addr)
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &mortalConn{Conn: c, d: d}, nil
}

type mortalConn struct {
	net.Conn
	d *mortalDialer
}

func (c *mortalConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	if c.d.budget.Add(-int64(n)) <= 0 {
		c.Conn.Close()
		return 0, io.ErrUnexpectedEOF
	}
	return n, err
}

// tamperProxy fronts the daemon at backend: every request is forwarded, and
// mutate may replace the request on the way in (nil reply) or the reply on the
// way out.
func tamperProxy(t *testing.T, backend string, mutate func(req, resp *wire.Message) *wire.Message) string {
	t.Helper()
	pool := transport.NewPool(backend, transport.PoolOptions{})
	s, err := transport.Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		if swapped := mutate(req, nil); swapped != nil {
			req = swapped
		}
		resp, err := pool.Call(req)
		if err != nil {
			return nil, err
		}
		if swapped := mutate(req, resp); swapped != nil {
			resp = swapped
		}
		return resp, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		pool.Close()
	})
	return s.Addr()
}

// poolMisses runs fn and returns how many buffer-pool Gets had to allocate
// while it ran.
func poolMisses(fn func()) int64 {
	before := bufpool.Snapshot().Misses
	fn()
	return bufpool.Snapshot().Misses - before
}

// notHosted reports VM vm on node n as left behind by a failed rebuild.
func notHosted(n *Node, vm string) error {
	if _, err := n.member(vm); err == nil {
		return fmt.Errorf("node %d hosts %q after a failed rebuild", n.nodeID(), vm)
	}
	return nil
}

// TestFailedRestoreAdoptsNothingAndLeaksNothing: a restore whose source dies
// mid-pull, or answers the last chunk with another chunk's frame, a frame of a
// differently sized block, or the wrong parity block, returns an error and
// the target hosts no such VM afterwards. So does a double loss of an RS(3,2)
// group that one spare decodes and hands half of to another, when the
// decoder dies between its decode and the handoff (the target's pull of the
// held block is cut) or the handoff's target already hosts the VM: the
// decoder adopts its own element only once every handoff succeeded, and holds
// nothing after. Repeating any failure does not grow the buffer pool's miss
// count with the slots pulled — every reply buffer went back, folded or not.
// The tampered replies are well-formed chunk frames (valid CRC), so only the
// request/reply check stands between them and a silently wrong image.
// readSlot is lowered so the tampered slot is not the first: a 1 KiB block at
// the real readSlot is one slot, and the reply check would then never see a
// stale index.
func TestFailedRestoreAdoptsNothingAndLeaksNothing(t *testing.T) {
	const cs, slot = 64, 256 // one-page chunks, four-page slots: 4 per 1 KiB block
	withReadSlot(t, slot)
	committed := func(layout *cluster.Layout) *Coordinator {
		coord, _ := chunkedCluster(t, layout, cs)
		if err := coord.Step(60); err != nil {
			t.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		return coord
	}
	coord := committed(paperLayout(t))
	layout := coord.Layout()
	g := layout.Groups[0]
	lost := g.Members[0]
	survivors := map[string]int{}
	for _, name := range g.Members[1:] {
		v, _ := layout.VM(name)
		survivors[name] = v.Node
	}
	parityPeers := map[int]int{0: g.ParityNodes[0]}
	imageSource := survivors[g.Members[1]]
	const total = 16 * 64
	lastSlot := uint64(wire.ChunkCount(total, slot) - 1)
	isLast := func(req *wire.Message, source string) bool {
		return req.Type == wire.MsgReadChunk && req.Text == source && req.Arg>>32 == lastSlot
	}
	// restore is the single-loss attempt on target, and what it must not
	// leave there.
	restore := func(t *testing.T, target *Node) (func() error, func() error) {
		return func() error { return reconstructOn(t, target, coord, g, lost, survivors, parityPeers) },
			func() error { return notHosted(target, lost) }
	}

	rs2, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	coord2 := committed(rs2)
	g2 := rs2.Groups[0]
	a, b := g2.Members[0], g2.Members[1]
	c, _ := rs2.VM(g2.Members[2])
	// handoff is the double-loss attempt: decoder rebuilds a for itself and b
	// for target.
	handoff := func(t *testing.T, decoder, target *Node) func() error {
		return func() error {
			return rebuildOn(t, decoder, coord2, g2, map[string]int{c.Name: c.Node}, map[int]int{0: g2.ParityNodes[0], 1: g2.ParityNodes[1]},
				lostVM(coord2, a, decoder.nodeID()), lostVM(coord2, b, target.nodeID()))
		}
	}
	decoderLeft := func(decoder *Node) error {
		if n := heldBlocks(decoder); n != 0 {
			return fmt.Errorf("the decoder holds %d element(s) after a failed rebuild", n)
		}
		return notHosted(decoder, a)
	}

	cases := []struct {
		name string
		want string // in the error
		// setup starts the spares; arm runs before every attempt, and
		// leftover names what the failed attempt left behind.
		setup func(t *testing.T) (arm func(), attempt, leftover func() error)
	}{
		{"source dies mid-pull", "", func(t *testing.T) (func(), func() error, func() error) {
			d := &mortalDialer{victim: coord.addrs[imageSource]}
			n, _ := spareNode(t, coord, cs, NodeOptions{Dialer: d.dial}, nil)
			attempt, leftover := restore(t, n)
			return func() { d.budget.Store(total * 2 / 3) }, attempt, leftover
		}},
		{"wrong index", "reply carries chunk", func(t *testing.T) (func(), func() error, func() error) {
			proxy := tamperProxy(t, coord.addrs[imageSource], func(req, resp *wire.Message) *wire.Message {
				if resp == nil && isLast(req, "image") {
					stale := *req
					stale.Arg = req.Arg - 1<<32 // what a duplicated reply to the previous request delivers
					return &stale
				}
				return nil
			})
			n, _ := spareNode(t, coord, cs, NodeOptions{}, map[int]string{imageSource: proxy})
			attempt, leftover := restore(t, n)
			return func() {}, attempt, leftover
		}},
		{"wrong total", "reply carries chunk", func(t *testing.T) (func(), func() error, func() error) {
			proxy := tamperProxy(t, coord.addrs[imageSource], func(req, resp *wire.Message) *wire.Message {
				if resp == nil || !isLast(req, "image") {
					return nil
				}
				c, err := wire.DecodeChunk(resp.Payload)
				if err != nil {
					t.Error(err)
					return nil
				}
				c.Total += 64
				return &wire.Message{Type: resp.Type, VM: resp.VM, Epoch: resp.Epoch, Payload: wire.EncodeChunk(&c)}
			})
			n, _ := spareNode(t, coord, cs, NodeOptions{}, map[int]string{imageSource: proxy})
			attempt, leftover := restore(t, n)
			return func() {}, attempt, leftover
		}},
		{"wrong parity index", "serves parity[1]", func(t *testing.T) (func(), func() error, func() error) {
			proxy := tamperProxy(t, coord.addrs[parityPeers[0]], func(req, resp *wire.Message) *wire.Message {
				if resp != nil && isLast(req, "parity") {
					resp.Arg = 1
				}
				return nil
			})
			n, _ := spareNode(t, coord, cs, NodeOptions{}, map[int]string{parityPeers[0]: proxy})
			attempt, leftover := restore(t, n)
			return func() {}, attempt, leftover
		}},
		{"decoder dies before the handoff", "", func(t *testing.T) (func(), func() error, func() error) {
			d := &mortalDialer{}
			spares, _ := spareNodes(t, coord2, cs, nil, NodeOptions{}, NodeOptions{Dialer: d.dial})
			d.victim = spares[0].Addr()
			return func() { d.budget.Store(total * 2 / 3) }, handoff(t, spares[0], spares[1]),
				func() error { return errors.Join(decoderLeft(spares[0]), notHosted(spares[1], b)) }
		}},
		{"handoff target already hosts the VM", "already hosts", func(t *testing.T) (func(), func() error, func() error) {
			spares, ids := spareNodes(t, coord2, cs, nil, NodeOptions{}, NodeOptions{})
			installOn(t, coord2, spares[1], ids[1], b)
			return func() {}, handoff(t, spares[0], spares[1]), func() error { return decoderLeft(spares[0]) }
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			arm, attempt, leftover := tc.setup(t)
			fail := func() {
				arm()
				if err := attempt(); err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("rebuild from a bad source: got %v, want an error containing %q", err, tc.want)
				}
				if err := leftover(); err != nil {
					t.Fatal(err)
				}
			}
			fail() // warm the pool's classes
			const repeats = 8
			// A leak would cost a miss or two per slot pulled: most of an
			// attempt's 3 x 4 slots arrive before the bad one.
			if grew := poolMisses(func() {
				for i := 0; i < repeats; i++ {
					fail()
				}
			}); grew > 16 {
				t.Errorf("%d failed restores grew bufpool misses by %d: reply buffers are leaking", repeats, grew)
			}
		})
	}
}

// installOn has node (id) take a copy of VM vm from its host, as a move's
// install does.
func installOn(t *testing.T, coord *Coordinator, node *Node, id int, vm string) {
	t.Helper()
	v, _ := coord.Layout().VM(vm)
	rc := coord.groupRebuild(v.Group)
	rc.Survivors, rc.ParityPeers, rc.From, rc.Lost = nil, nil, &v.Node, []lostElement{lostVM(coord, vm, id)}
	text, err := encodeJSON(rc)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.handle(&wire.Message{Type: wire.MsgReconstruct, Text: text}); err != nil {
		t.Fatal(err)
	}
}

// heldCutter is a node dialer that kills a decoder as its handoff begins:
// the first held read sent to the armed address closes that daemon — off the
// caller's goroutine, since closing waits for the daemon's handlers, the
// decoder's among them — and fails, as does every later write or dial to it.
type heldCutter struct {
	mu     sync.Mutex
	victim string // the armed or cut address; "" = none
	kill   func() // nil once the victim is cut
	dying  sync.WaitGroup
}

func (h *heldCutter) arm(victim string, kill func()) {
	h.mu.Lock()
	h.victim, h.kill = victim, kill
	h.mu.Unlock()
}

func (h *heldCutter) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if h.cut(addr, nil) {
		return nil, fmt.Errorf("dial %s: connection refused (the decoder is dead)", addr)
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &cutConn{Conn: c, h: h, addr: addr}, nil
}

// cut reports whether traffic to addr must fail: the victim is cut, or b —
// a whole request, which wire.WriteFrame sends in one Write — is the first
// held read sent to it, which kills it.
func (h *heldCutter) cut(addr string, b []byte) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	switch {
	case addr != h.victim:
		return false
	case h.kill == nil:
		return true
	case len(b) < 4:
		return false
	}
	m, err := wire.Decode(b[4:])
	if err != nil {
		return false
	}
	bufpool.Put(m.Payload)
	if m.Type != wire.MsgReadChunk || m.Text != "held" {
		return false
	}
	kill := h.kill
	h.kill = nil
	h.dying.Add(1)
	go func() {
		defer h.dying.Done()
		kill()
	}()
	return true
}

type cutConn struct {
	net.Conn
	h    *heldCutter
	addr string
}

func (c *cutConn) Write(b []byte) (int, error) {
	if c.h.cut(c.addr, b) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// strays lists what the nodes hold beyond what the layout places on them: an
// element held for a handoff on any node, and on a node not in down a VM or a
// parity block the layout puts elsewhere.
func strays(coord *Coordinator, nodes []*Node, down []int) []string {
	layout := coord.Layout()
	var out []string
	for i, n := range nodes {
		n.mu.Lock()
		if len(n.held) > 0 {
			out = append(out, fmt.Sprintf("node %d holds %d element(s) for a handoff", i, len(n.held)))
		}
		for name := range n.members {
			if v, _ := layout.VM(name); v.Node != i && !slices.Contains(down, i) {
				out = append(out, fmt.Sprintf("node %d hosts %q, placed on node %d", i, name, v.Node))
			}
		}
		for g, ks := range n.keepers {
			if home := layout.Groups[g].ParityNodes[ks.cfg.ParityIdx]; home != i && !slices.Contains(down, i) {
				out = append(out, fmt.Sprintf("node %d keeps parity[%d] of group %d, placed on node %d", i, ks.cfg.ParityIdx, g, home))
			}
		}
		n.mu.Unlock()
	}
	return out
}

// TestRecoveryPoolBalance: every read-chunk reply buffer has one owner that
// returns it — the serving side after the flush, the pulling side after the
// fold — so a recover -> repair -> rebalance cycle on a warm pool draws its
// slot frames from the pool instead of allocating two per slot pulled. That
// holds for cycles whose first recovery fails, too. On the 7-node RS(3,2)
// layout, with groups rebuilt one at a time, the decoder of the last damaged
// group dies between its decode and the handoff, or the handoff's target of
// the last group to lose two VMs already hosts the VM. RecoverNodes errors
// and no node holds a held block or an element the layout does not place
// there; the groups that completed are recorded, and a retry that includes
// the dead decoder rebuilds exactly what the shadow holds.
func TestRecoveryPoolBalance(t *testing.T) {
	const (
		pages, pageSize = 256, 64 // 16 KiB images
		chunkSize       = 256     // and read slots of the same size: 64 per image
	)
	withReadSlot(t, chunkSize)
	// bringUp starts layout's daemons with opts; start(i) restarts daemon i
	// on its address.
	bringUp := func(t *testing.T, layout *cluster.Layout, opts NodeOptions) (*Coordinator, []*Node, func(i int)) {
		nodes := make([]*Node, layout.Nodes)
		addrs := map[int]string{}
		start := func(i int) {
			addr := addrs[i]
			if addr == "" {
				addr = "127.0.0.1:0"
			}
			n, err := NewNodeWith(addr, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			nodes[i], addrs[i] = n, n.Addr()
		}
		for i := range nodes {
			start(i)
		}
		coord, err := NewCoordinator(layout, addrs, pages, pageSize, 12345)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(coord.Close)
		coord.SetChunkSize(chunkSize)
		if err := coord.Setup(); err != nil {
			t.Fatal(err)
		}
		return coord, nodes, start
	}

	t.Run("single loss", func(t *testing.T) {
		coord, nodes, start := bringUp(t, paperLayout(t), NodeOptions{})
		cycle := func() {
			if err := coord.Step(100); err != nil {
				t.Fatal(err)
			}
			if err := coord.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			nodes[1].Close()
			if _, err := coord.RecoverNodes(1); err != nil {
				t.Fatal(err)
			}
			start(1)
			if err := coord.Repair(1); err != nil {
				t.Fatal(err)
			}
			if _, err := coord.Rebalance(); err != nil {
				t.Fatal(err)
			}
		}
		cycle()
		// One cycle restores three VMs and re-homes a parity block from three
		// blocks each, then moves them back: more than 12 * 64 slots pulled.
		const pulled = 12 * pages * pageSize / chunkSize
		if grew := poolMisses(cycle); grew > pulled/8 {
			t.Errorf("a warm recover/repair/rebalance cycle pulling over %d slots grew bufpool misses by %d", pulled, grew)
		}
	})

	const decoderDies, targetHosts = "decoder dies before the handoff", "handoff target already hosts the VM"
	for _, sabotage := range []string{decoderDies, targetHosts} {
		t.Run(sabotage, func(t *testing.T) {
			layout, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			var cutter heldCutter
			coord, nodes, start := bringUp(t, layout, NodeOptions{Dialer: cutter.dial})
			coord.fanoutW = 1 // groups one at a time, in order
			shadow, err := NewShadow(layout, pages, pageSize, 12345)
			if err != nil {
				t.Fatal(err)
			}
			// pick finds the first pair of nodes whose loss damages a group
			// that fits the sabotage: the last damaged group, which runs when
			// every other group is rebuilt and recorded, losing two elements;
			// or for the refusal the last group to lose two VMs.
			pick := func() ([]int, *cluster.Plan, []cluster.Step) {
				for a := 0; a < layout.Nodes; a++ {
					for b := a + 1; b < layout.Nodes; b++ {
						plan, err := coord.Layout().PlanRecovery(a, b)
						if err != nil {
							continue
						}
						byGroup := map[int][]cluster.Step{}
						var groups []int
						for _, s := range plan.Steps {
							if byGroup[s.Group] == nil {
								groups = append(groups, s.Group)
							}
							byGroup[s.Group] = append(byGroup[s.Group], s)
						}
						slices.Sort(groups)
						if sabotage == decoderDies && len(groups) > 0 {
							groups = groups[len(groups)-1:]
						}
						var steps []cluster.Step
						for _, gi := range groups {
							if st := byGroup[gi]; len(st) >= 2 && (sabotage == decoderDies || st[1].Kind == cluster.RestoreVM) {
								steps = st
							}
						}
						if steps != nil {
							return []int{a, b}, plan, steps
						}
					}
				}
				t.Fatal("no pair of nodes damages a group the sabotage fits")
				return nil, nil, nil
			}
			var checked int64 // pool misses of the oracle's own whole-block reads
			check := func(when string) {
				checked += poolMisses(func() {
					if err := oracleDiff(t, coord, shadow); err != nil {
						t.Fatalf("%s: %v", when, err)
					}
				})
			}
			cycle := func() {
				shadowRounds(t, coord, shadow, 1)
				down, plan, steps := pick()
				decoder, target := steps[0].TargetNode, steps[1].TargetNode
				retry := down
				if sabotage == decoderDies {
					cutter.arm(coord.addrs[decoder], func() { nodes[decoder].Close() })
					retry = append(slices.Clone(down), decoder)
				} else {
					installOn(t, coord, nodes[target], target, steps[1].VM)
				}
				for _, v := range down {
					nodes[v].Close()
				}
				if _, err := coord.RecoverNodes(down...); err == nil {
					t.Fatalf("recovery succeeded with group %d sabotaged", steps[0].Group)
				}
				cutter.dying.Wait()
				cutter.arm("", nil)
				if sabotage == targetHosts {
					if _, err := nodes[target].handle(&wire.Message{Type: wire.MsgEvict, VM: steps[1].VM}); err != nil {
						t.Fatal(err)
					}
				}
				if left := strays(coord, nodes, retry); len(left) > 0 {
					t.Fatalf("after the failed recovery: %v", left)
				}
				again, err := coord.RecoverNodes(retry...)
				if err != nil {
					t.Fatalf("retried recovery of %v: %v", retry, err)
				}
				for _, p := range []*cluster.Plan{plan, again} {
					if err := shadow.Recover(p, coord.Epoch()); err != nil {
						t.Fatal(err)
					}
				}
				check("after the retried recovery")
				for _, v := range retry {
					start(v)
					if err := coord.Repair(v); err != nil {
						t.Fatal(err)
					}
				}
				shadowRounds(t, coord, shadow, 1)
				rb, err := coord.Rebalance()
				if err != nil {
					t.Fatal(err)
				}
				if err := shadow.Rebalance(rb, coord.Epoch()); err != nil {
					t.Fatal(err)
				}
				check("after repair and rebalance")
			}
			cycle()
			// The failed recovery alone decodes six groups from three shards of
			// 64 slots each.
			const pulled = 18 * pages * pageSize / chunkSize
			before := checked
			if grew := poolMisses(cycle) - (checked - before); grew > pulled/8 {
				t.Errorf("a warm cycle pulling over %d slots grew bufpool misses by %d", pulled, grew)
			}
		})
	}
}
