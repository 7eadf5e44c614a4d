package runtime

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/bufpool"
	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// spareNode starts an empty daemon next to a running cluster and configures
// it as one more node: it knows every peer (override replaces addresses, to
// put a proxy in front of one) and itself, hosts nothing, and uses chunkSize.
// Restores, re-homes and moves are driven on it directly, so a test chooses
// which shards count as lost without killing anything.
func spareNode(t *testing.T, coord *Coordinator, chunkSize int, opts NodeOptions, override map[int]string) (*Node, int) {
	t.Helper()
	n, err := NewNodeWith("127.0.0.1:0", opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { n.Close() })
	id := len(coord.addrs)
	peers := map[int]string{id: n.Addr()}
	for i, a := range coord.addrs {
		peers[i] = a
	}
	for i, a := range override {
		peers[i] = a
	}
	text, err := encodeJSON(NodeConfig{NodeID: id, Peers: peers, ChunkSize: chunkSize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := n.handle(&wire.Message{Type: wire.MsgConfigure, Text: text}); err != nil {
		t.Fatal(err)
	}
	return n, id
}

// withReadSlot sets readSlot for the rest of the test, so small images span
// several slots.
func withReadSlot(t *testing.T, n int) {
	prev := readSlot
	readSlot = n
	t.Cleanup(func() { readSlot = prev })
}

// reconstructOn asks target to rebuild vmName of group g from the shards the
// two maps name.
func reconstructOn(t *testing.T, target *Node, coord *Coordinator, g cluster.Group, vmName string, survivors map[string]int, parityPeers map[int]int) error {
	t.Helper()
	v, _ := coord.Layout().VM(vmName)
	text, err := encodeJSON(reconstructConfig{
		VMConfig: coord.vmConfig(v), Members: g.Members, Tolerance: coord.Layout().Tolerance,
		Survivors: survivors, ParityPeers: parityPeers,
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = target.handle(&wire.Message{Type: wire.MsgReconstruct, Group: int32(g.Index), VM: vmName, Text: text})
	return err
}

// TestStreamedRestoreMatchesReconstructMembers holds the streaming combine to
// the whole-group solver it replaced on the restore path. On a live loopback
// cluster, for every single and double loss of an RS(3,2) group's five shards
// and every single loss of an XOR group's four, a spare node restores each
// lost VM from exactly the shards left and re-homes each lost parity block
// (pulling a just-restored image from itself where the pattern lost both);
// images must equal core.ReconstructMembers over the same shards, parity
// blocks a core.NewMKeeper over all images. On 1 KiB images, chunks and read
// slots are both one page, a size that does not divide the image, or one
// larger than the image. At the real readSlot and the default chunk, a
// 400 KiB image ends mid-way through its second slot.
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
				coord, _ := sizedCluster(t, tc.layout, c.pages, c.pageSize, cs, false)
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
				spare, spareID := spareNode(t, coord, cs, NodeOptions{}, nil)

				lose := func(erased []int) {
					survivors, parityPeers := map[string]int{}, map[int]int{}
					survivorImgs, aliveBlocks := map[string][]byte{}, map[int][]byte{}
					var lostVMs []string
					var lostParity []int
					for shard := 0; shard < k+m; shard++ {
						gone := false
						for _, e := range erased {
							gone = gone || e == shard
						}
						switch {
						case shard < k && gone:
							lostVMs = append(lostVMs, g.Members[shard])
						case shard < k:
							survivors[g.Members[shard]] = hosts[g.Members[shard]]
							survivorImgs[g.Members[shard]] = images[g.Members[shard]]
						case gone:
							lostParity = append(lostParity, shard-k)
						default:
							parityPeers[shard-k] = g.ParityNodes[shard-k]
							aliveBlocks[shard-k] = blocks[shard-k]
						}
					}
					if len(lostVMs) > 0 {
						want, err := core.ReconstructMembers(m, g.Members, survivorImgs, aliveBlocks, lostVMs)
						if err != nil {
							t.Fatalf("erased %v: oracle: %v", erased, err)
						}
						for _, name := range lostVMs {
							if err := reconstructOn(t, spare, coord, g, name, survivors, parityPeers); err != nil {
								t.Fatalf("erased %v: restore %q: %v", erased, name, err)
							}
							got, epoch, _ := readBlock(t, spare.Addr(), "image", name, 0)
							if !bytes.Equal(got, want[name]) {
								t.Errorf("erased %v: streamed image of %q diverges from core.ReconstructMembers", erased, name)
							}
							if epoch != coord.Epoch() {
								t.Errorf("erased %v: %q adopted at epoch %d, cluster committed %d", erased, name, epoch, coord.Epoch())
							}
						}
					}
					for _, idx := range lostParity {
						rk := rebuildKeeperConfig{KeeperConfig: coord.keeperConfig(g.Index, idx), MemberNodes: map[string]int{}, Epochs: map[string]uint64{}}
						for _, name := range g.Members {
							rk.MemberNodes[name] = hosts[name]
							rk.Epochs[name] = coord.Epoch()
						}
						for _, name := range lostVMs {
							rk.MemberNodes[name] = spareID // restored above: the spare pulls from itself
						}
						text, err := encodeJSON(rk)
						if err != nil {
							t.Fatal(err)
						}
						if _, err := spare.handle(&wire.Message{Type: wire.MsgRebuildKeeper, Group: int32(g.Index), Text: text}); err != nil {
							t.Fatalf("erased %v: re-home parity[%d]: %v", erased, idx, err)
						}
						got, _, gotIdx := readBlock(t, spare.Addr(), "parity", "", g.Index)
						if gotIdx != idx || !bytes.Equal(got, blocks[idx]) {
							t.Errorf("erased %v: streamed parity[%d] (served as [%d]) diverges from the in-process keeper", erased, idx, gotIdx)
						}
						spare.mu.Lock()
						delete(spare.keepers, g.Index) // one block of a group per node: make room for the next
						spare.mu.Unlock()
					}
					for _, name := range lostVMs {
						if _, err := spare.handle(&wire.Message{Type: wire.MsgEvict, VM: name}); err != nil {
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
			coord, _ := sizedCluster(t, paperLayout(t), pages, pageSize, cs, false)
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

// TestFailedRestoreAdoptsNothingAndLeaksNothing: a restore whose source dies
// mid-pull, or answers the last chunk with another chunk's frame, a frame of a
// differently sized block, or the wrong parity block, returns an error; the
// target hosts no such VM afterwards; and repeating the failure does not grow
// the buffer pool's miss count with the slots pulled — every reply buffer
// went back, folded or not. The tampered replies are well-formed chunk frames
// (valid CRC), so only the request/reply check stands between them and a
// silently wrong image. readSlot is lowered so the tampered slot is not the
// first: a 1 KiB block at the real readSlot is one slot, and the reply check
// would then never see a stale index.
func TestFailedRestoreAdoptsNothingAndLeaksNothing(t *testing.T) {
	const cs, slot = 64, 256 // one-page chunks, four-page slots: 4 per 1 KiB block
	withReadSlot(t, slot)
	coord, _ := chunkedCluster(t, paperLayout(t), cs, false)
	if err := coord.Step(60); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
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

	cases := []struct {
		name string
		want string // in the error
		// spare starts the target; arm runs before every attempt.
		spare func(t *testing.T) (target *Node, arm func())
	}{
		{"source dies mid-pull", "", func(t *testing.T) (*Node, func()) {
			d := &mortalDialer{victim: coord.addrs[imageSource]}
			n, _ := spareNode(t, coord, cs, NodeOptions{Dialer: d.dial}, nil)
			return n, func() { d.budget.Store(total * 2 / 3) }
		}},
		{"wrong index", "reply carries chunk", func(t *testing.T) (*Node, func()) {
			proxy := tamperProxy(t, coord.addrs[imageSource], func(req, resp *wire.Message) *wire.Message {
				if resp == nil && isLast(req, "image") {
					stale := *req
					stale.Arg = req.Arg - 1<<32 // what a duplicated reply to the previous request delivers
					return &stale
				}
				return nil
			})
			n, _ := spareNode(t, coord, cs, NodeOptions{}, map[int]string{imageSource: proxy})
			return n, func() {}
		}},
		{"wrong total", "reply carries chunk", func(t *testing.T) (*Node, func()) {
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
			return n, func() {}
		}},
		{"wrong parity index", "serves parity[1]", func(t *testing.T) (*Node, func()) {
			proxy := tamperProxy(t, coord.addrs[parityPeers[0]], func(req, resp *wire.Message) *wire.Message {
				if resp != nil && isLast(req, "parity") {
					resp.Arg = 1
				}
				return nil
			})
			n, _ := spareNode(t, coord, cs, NodeOptions{}, map[int]string{parityPeers[0]: proxy})
			return n, func() {}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spare, arm := tc.spare(t)
			fail := func() {
				arm()
				err := reconstructOn(t, spare, coord, g, lost, survivors, parityPeers)
				if err == nil || !strings.Contains(err.Error(), tc.want) {
					t.Fatalf("restore from a bad source: got %v, want an error containing %q", err, tc.want)
				}
				if _, err := spare.member(lost); err == nil {
					t.Fatalf("the target hosts %q after a failed restore", lost)
				}
			}
			fail() // warm the pool's classes
			const repeats = 8
			// A leak would cost a miss or two per slot pulled: most of a
			// restore's 3 x 4 slots arrive before the bad one.
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

// TestRecoveryPoolBalance: every read-chunk reply buffer has one owner that
// returns it — the serving side after the flush, the pulling side after the
// fold — so a recover -> repair -> rebalance cycle on a warm pool draws its
// slot frames from the pool instead of allocating two per slot pulled.
func TestRecoveryPoolBalance(t *testing.T) {
	const (
		pages, pageSize = 256, 64 // 16 KiB images
		chunkSize       = 256     // and read slots of the same size: 64 per image
	)
	withReadSlot(t, chunkSize)
	layout := paperLayout(t)
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	start := func(i int, addr string) {
		n, err := NewNode(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	for i := range nodes {
		start(i, "127.0.0.1:0")
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
		start(1, addrs[1])
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
}
