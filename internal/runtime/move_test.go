package runtime

import (
	"encoding/binary"
	"maps"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/wire"
)

// frameMeter is a counting dialer: every connection it opens follows the
// length-prefixed framing of both directions, records the largest frame and
// counts the MsgReadChunk requests it sends, in all and by address.
type frameMeter struct {
	max, reads atomic.Int64
	readsTo    sync.Map // address -> *atomic.Int64
}

func (fm *frameMeter) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &meteredConn{Conn: c, fm: fm, addr: addr}, nil
}

// readsFrom returns how many MsgReadChunk requests went to addr.
func (fm *frameMeter) readsFrom(addr string) int64 {
	if n, ok := fm.readsTo.Load(addr); ok {
		return n.(*atomic.Int64).Load()
	}
	return 0
}

func (fm *frameMeter) observe(n int) {
	for {
		old := fm.max.Load()
		if int64(n) <= old || fm.max.CompareAndSwap(old, int64(n)) {
			return
		}
	}
}

type meteredConn struct {
	net.Conn
	fm   *frameMeter
	addr string
	r, w frameScan
}

func (c *meteredConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.r.feed(b[:n], c.fm, "")
	return n, err
}

func (c *meteredConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.w.feed(b[:n], c.fm, c.addr)
	return n, err
}

// frameScan tracks one direction of a framed stream: a 4-byte little-endian
// body length, then the body, whose first byte is the message type.
type frameScan struct {
	hdr   [4]byte
	have  int  // header bytes collected
	body  int  // body bytes still to skip
	typed bool // the type byte of the current body was seen
}

// feed scans b, recording frame sizes in fm and, on the side sending to
// address to (empty on the receiving side), counting the MsgReadChunk frames.
func (s *frameScan) feed(b []byte, fm *frameMeter, to string) {
	for len(b) > 0 {
		if s.body > 0 {
			if !s.typed && to != "" && wire.MsgType(b[0]) == wire.MsgReadChunk {
				fm.reads.Add(1)
				n, _ := fm.readsTo.LoadOrStore(to, new(atomic.Int64))
				n.(*atomic.Int64).Add(1)
			}
			s.typed = true
			k := min(s.body, len(b))
			s.body -= k
			b = b[k:]
			continue
		}
		k := copy(s.hdr[s.have:], b)
		s.have += k
		b = b[k:]
		if s.have == len(s.hdr) {
			s.have, s.typed = 0, false
			s.body = int(binary.LittleEndian.Uint32(s.hdr[:]))
			fm.observe(len(s.hdr) + s.body)
		}
	}
}

// TestCoordinatorCarriesNoBulkFrames pins the control-plane/data-plane split
// of recovery and rebalance: images span several read slots, and through
// kill → RecoverNodes → Repair → Rebalance no frame on a coordinator
// connection reaches even one chunk, while every node-to-node frame is at
// most one read slot plus framing, and a full slot is pulled — images and
// parity blocks move only as MsgReadChunk pulls between the nodes that hold
// and need them.
func TestCoordinatorCarriesNoBulkFrames(t *testing.T) {
	const (
		pages, pageSize = 128, 4096 // 512 KiB images: two full read slots and a tail
		chunkSize       = 4096
		// Length prefix, fixed header, the VM/Text/Payload length fields and
		// room for a VM name.
		envelope = 4 + wire.FixedHeaderLen + 2 + 4 + 4 + 32
	)
	slot := readSlot
	rs2Layout := func(t *testing.T) *cluster.Layout {
		l, err := cluster.BuildDistributedGroups(6, 1, 2, 3)
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	for _, tc := range []struct {
		name    string
		layout  func(*testing.T) *cluster.Layout
		victims []int
	}{
		{"xor-m1", paperLayout, []int{1}},
		{"rs-m2", rs2Layout, []int{0, 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			layout := tc.layout(t)
			var coordFrames, nodeFrames frameMeter
			nodes := make([]*Node, layout.Nodes)
			addrs := map[int]string{}
			start := func(i int, addr string) {
				n, err := NewNodeWith(addr, NodeOptions{Dialer: nodeFrames.dial})
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
			coord.SetDialer(coordFrames.dial)
			coord.SetChunkSize(chunkSize)
			if err := coord.Setup(); err != nil {
				t.Fatal(err)
			}
			if err := coord.Step(400); err != nil {
				t.Fatal(err)
			}
			if err := coord.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			committed, err := coord.Checksums()
			if err != nil {
				t.Fatal(err)
			}
			// Delta batches of the round above may legitimately exceed one
			// chunk; from here on only recovery traffic crosses node links.
			nodeFrames.max.Store(0)

			for _, v := range tc.victims {
				nodes[v].Close()
			}
			if _, err := coord.RecoverNodes(tc.victims...); err != nil {
				t.Fatal(err)
			}
			for _, v := range tc.victims {
				start(v, addrs[v])
				if err := coord.Repair(v); err != nil {
					t.Fatal(err)
				}
			}
			plan, err := coord.Rebalance()
			if err != nil {
				t.Fatal(err)
			}
			moved := false
			for _, s := range plan.Steps {
				moved = moved || s.Kind == cluster.RestoreVM
			}
			if !moved {
				t.Fatal("rebalance moved no VM; the test layout no longer exercises a move")
			}
			after, err := coord.Checksums()
			if err != nil {
				t.Fatal(err)
			}
			if !maps.Equal(after, committed) {
				t.Error("committed images changed through recover + repair + rebalance")
			}

			if got := coordFrames.max.Load(); got >= chunkSize {
				t.Errorf("largest frame on a coordinator connection is %d bytes; want under one %d-byte chunk", got, chunkSize)
			}
			got := nodeFrames.max.Load()
			if got <= int64(slot+wire.ChunkHeaderLen) {
				t.Errorf("largest node-to-node frame is %d bytes: no full %d-byte slot was pulled", got, slot)
			}
			if limit := int64(slot + wire.ChunkHeaderLen + envelope); got > limit {
				t.Errorf("largest node-to-node frame is %d bytes; want at most %d (one slot plus framing)", got, limit)
			}
		})
	}
}

// degradedPaperCluster brings the paper's 4-node cluster to the point where a
// rebalance has VMs to move back: one committed round, node 1 killed and
// recovered (degraded), a replacement daemon repaired in. It returns the
// replacement and the committed checksums.
func degradedPaperCluster(t *testing.T) (*Coordinator, *Node, map[string]uint64) {
	t.Helper()
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Step(50); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	addr := nodes[1].Addr()
	nodes[1].Close()
	if _, err := coord.RecoverNodes(1); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fresh.Close() })
	if err := coord.Repair(1); err != nil {
		t.Fatal(err)
	}
	return coord, fresh, committed
}

// vmHomes snapshots the layout's VM placement.
func vmHomes(l *cluster.Layout) map[string]int {
	homes := map[string]int{}
	for _, v := range l.VMs {
		homes[v.Name] = v.Node
	}
	return homes
}

// TestFailedMoveKeepsTheSource: a move installs on the new host before the
// old host is told to drop the VM, so a target that dies before the move
// costs nothing — the rebalance errors, placement is unchanged and every VM
// still answers from its old host with its committed image.
func TestFailedMoveKeepsTheSource(t *testing.T) {
	coord, fresh, committed := degradedPaperCluster(t)
	homes := vmHomes(coord.Layout())
	fresh.Close()
	if _, err := coord.Rebalance(); err == nil {
		t.Fatal("rebalance onto a dead target should fail")
	}
	if got := vmHomes(coord.Layout()); !maps.Equal(got, homes) {
		t.Errorf("placement changed by a failed rebalance: %v, was %v", got, homes)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatalf("a VM is gone after the failed move: %v", err)
	}
	if !maps.Equal(after, committed) {
		t.Error("committed images changed through a failed move")
	}
}

// TestRefusedMoveLeavesNoCopy: stepping after the checkpoint dirties every
// VM, so each old host refuses to drop its VM. The refusal comes back, the
// copy the new host had already pulled is dropped again, placement is
// unchanged — and after a checkpoint the same rebalance goes through.
func TestRefusedMoveLeavesNoCopy(t *testing.T) {
	coord, fresh, _ := degradedPaperCluster(t)
	homes := vmHomes(coord.Layout())
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	_, err := coord.Rebalance()
	if err == nil || !strings.Contains(err.Error(), "uncommitted dirty pages") {
		t.Fatalf("rebalance of dirty VMs: got %v, want the source's dirty-pages refusal", err)
	}
	if got := vmHomes(coord.Layout()); !maps.Equal(got, homes) {
		t.Errorf("placement changed by a refused rebalance: %v, was %v", got, homes)
	}
	if left := fresh.snapshotMembers(); len(left) != 0 {
		t.Errorf("the target still hosts %d VM(s) after every move was refused", len(left))
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Rebalance(); err != nil {
		t.Fatalf("rebalance after a checkpoint: %v", err)
	}
	if err := coord.Layout().Validate(); err != nil {
		t.Errorf("layout not orthogonal after rebalance: %v", err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if !maps.Equal(after, committed) {
		t.Error("committed images changed through the move")
	}
}

// TestHostedVMIsRefusedBeforePulling: adopting a VM the node already hosts is
// refused before any image is pulled — the source named here does not exist,
// so a pull attempted first would fail on the missing peer instead.
func TestHostedVMIsRefusedBeforePulling(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	v := coord.Layout().VMs[0]
	rc := coord.groupRebuild(v.Group)
	from := 99
	rc.From, rc.Lost = &from, []lostElement{lostVM(coord, v.Name, v.Node)}
	text, err := encodeJSON(rc)
	if err != nil {
		t.Fatal(err)
	}
	_, err = nodes[v.Node].handle(&wire.Message{Type: wire.MsgReconstruct, VM: v.Name, Text: text})
	if err == nil || !strings.Contains(err.Error(), "already hosts") {
		t.Fatalf("install of a hosted VM: got %v, want the already-hosts refusal", err)
	}
}

// TestPartialRebalanceKeepsCompletedMoves: of a rebalance's moves (four on the
// paper layout, all onto the repaired node) the second fails — its guest wrote
// a page since the commit, so its source refuses the evict — and the others
// complete. The error comes back, the layout names the completed moves'
// targets and keeps the failed one's VM at its source, and the next round and
// a recovery of the target node commit and rebuild exactly what the shadow
// model holds.
func TestPartialRebalanceKeepsCompletedMoves(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := testCluster(t, layout)
	shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 1)
	const target = 1
	addr := nodes[target].Addr()
	nodes[target].Close()
	plan, err := coord.RecoverNodes(target)
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Recover(plan, coord.Epoch()); err != nil {
		t.Fatal(err)
	}
	if nodes[target], err = NewNode(addr); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { nodes[target].Close() })
	if err := coord.Repair(target); err != nil {
		t.Fatal(err)
	}

	rb, err := coord.Layout().PlanRebalance()
	if err != nil {
		t.Fatal(err)
	}
	var moves []cluster.Step
	for _, s := range rb.Steps {
		if s.Kind == cluster.RestoreVM {
			moves = append(moves, s)
		}
	}
	if len(moves) < 3 {
		t.Fatalf("rebalance plans %d moves; the test wants at least three", len(moves))
	}
	failed := moves[1]
	src, _ := coord.Layout().VM(failed.VM)
	ms, err := nodes[src.Node].member(failed.VM)
	if err != nil {
		t.Fatal(err)
	}
	write := func(p []byte) { p[0] ^= 0x5A }
	ms.mu.Lock()
	ms.mem.Machine().MutatePage(3, write)
	ms.mu.Unlock()
	shadow.vms[failed.VM].machine.MutatePage(3, write)

	if _, err := coord.Rebalance(); err == nil || !strings.Contains(err.Error(), "uncommitted dirty pages") {
		t.Fatalf("rebalance with a dirty source: got %v, want the source's dirty-pages refusal", err)
	}
	for _, s := range moves {
		want := s.TargetNode
		if s.VM == failed.VM {
			want = src.Node
		}
		if v, _ := coord.Layout().VM(s.VM); v.Node != want {
			t.Errorf("layout puts %q on node %d after the partial rebalance, want %d", s.VM, v.Node, want)
		}
	}
	completed := &cluster.Plan{Steps: append([]cluster.Step{moves[0]}, moves[2:]...)}
	if err := shadow.Rebalance(completed, coord.Epoch()); err != nil {
		t.Fatal(err)
	}

	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("round after the partial rebalance: %v", err)
	}
	nodes[target].Close()
	if plan, err = coord.RecoverNodes(target); err != nil {
		t.Fatalf("recovering the moves' target: %v", err)
	}
	if err := shadow.Recover(plan, coord.Epoch()); err != nil {
		t.Fatal(err)
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("recovery of the moves' target: %v", err)
	}
}
