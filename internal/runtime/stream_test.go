package runtime

import (
	"bytes"
	"fmt"
	"math/rand"
	"net"
	goruntime "runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/obs"
	"dvdc/internal/transport"
	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// The round path renders a member's delta from its live pages while it ships
// (core.Member.DeltaInto, the shipment's workers) and advances the committed image at
// commit. The tests here pin what that rests on: only the staged epoch
// commits, an aborted round's orphaned ship stops before it reads or sends
// anything stale, the streamed bytes equal what core.Member.CaptureDeltaInto
// computes in one piece, and a round leaves every pooled buffer where it
// found it.

// TestStaleAndDuplicateCommit sends MsgCommit straight to the nodes of a
// prepared cluster: a commit for any epoch but the staged one is an error that
// changes nothing — the prepared round still commits afterwards — and a
// repeated commit of the staged epoch is a no-op.
func TestStaleAndDuplicateCommit(t *testing.T) {
	layout := paperLayout(t)
	coord, nodes := testCluster(t, layout)
	shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 1)
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	shadow.Step(30)
	for i, n := range nodes {
		if _, err := n.handle(&wire.Message{Type: wire.MsgPrepare, Epoch: 2}); err != nil {
			t.Fatalf("prepare node %d: %v", i, err)
		}
	}
	commit := func(node int, epoch uint64) error {
		t.Helper()
		conn, err := transport.Dial(coord.addrs[node])
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		resp, err := call(conn, &wire.Message{Type: wire.MsgCommit, Epoch: epoch})
		if err == nil && (resp.Type != wire.MsgCommitOK || resp.Epoch != epoch) {
			t.Fatalf("commit of epoch %d on node %d replied %v for epoch %d", epoch, node, resp.Type, resp.Epoch)
		}
		return err
	}
	// Epoch 1 is last round's commit arriving late, epoch 3 one from a
	// coordinator that is ahead of this node.
	for _, epoch := range []uint64{1, 3} {
		for node := range nodes {
			if err := commit(node, epoch); err == nil || !strings.Contains(err.Error(), "epoch 2") {
				t.Fatalf("commit of epoch %d on node %d while epoch 2 is staged: %v", epoch, node, err)
			}
		}
		if err := oracleDiff(t, coord, shadow); err != nil {
			t.Fatalf("a refused commit of epoch %d moved committed state: %v", epoch, err)
		}
	}
	for node := range nodes {
		if err := commit(node, 2); err != nil {
			t.Fatalf("commit of the staged epoch on node %d: %v", node, err)
		}
	}
	shadow.Commit()
	coord.epoch.Store(2)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("after the refused commits, the staged round did not commit whole: %v", err)
	}
	for node := range nodes {
		if err := commit(node, 2); err != nil {
			t.Fatalf("repeated commit on node %d: %v", node, err)
		}
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatalf("a repeated commit changed committed state: %v", err)
	}
	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// frameGate holds back the frames of one message type a daemon writes while
// shut. On a listener it holds replies — MsgDeltaChunkOK: the batches are
// received and folded, their senders just never hear, a parity peer that has
// gone slow. On a dialer it holds requests — MsgDeltaChunk: a member's batch
// stays on its way to the parity peer for as long as the test likes.
type frameGate struct {
	typ  wire.MsgType
	mu   sync.Mutex
	open chan struct{} // closed = frames pass
}

func newFrameGate(typ wire.MsgType) *frameGate {
	g := &frameGate{typ: typ, open: make(chan struct{})}
	close(g.open)
	return g
}

func (g *frameGate) set(open bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	select {
	case <-g.open:
		if !open {
			g.open = make(chan struct{})
		}
	default:
		if open {
			close(g.open)
		}
	}
}

func (g *frameGate) listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &gatedListener{Listener: ln, g: g}, nil
}

func (g *frameGate) dial(addr string, timeout time.Duration) (net.Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: g}, nil
}

type gatedListener struct {
	net.Listener
	g *frameGate
}

func (l *gatedListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &gatedConn{Conn: c, g: l.g}, nil
}

type gatedConn struct {
	net.Conn
	g *frameGate
}

// Write passes everything but a frame of the gated type straight through. A
// frame's first Write opens with 4 length bytes, then the type byte; a bulk
// payload follows in Writes of its own, which wait on the one before them.
func (c *gatedConn) Write(b []byte) (int, error) {
	if len(b) > 4 && wire.MsgType(b[4]) == c.g.typ {
		c.g.mu.Lock()
		open := c.g.open
		c.g.mu.Unlock()
		<-open
	}
	return c.Conn.Write(b)
}

// nextAttempt begins coord's next round attempt, for a test that prepares and
// aborts by hand the way CheckpointIn does: once a node has seen an attempt
// aborted, it refuses batches of any attempt up to that one.
func nextAttempt(coord *Coordinator) uint64 {
	coord.attempts++
	return coord.attempts
}

// TestOrphanedShipStopsAtNextBatch: prepares stall on a parity peer that
// stops acknowledging batches, the coordinator's deadline passes, the round
// aborts and the guests run on — while the stalled prepare handlers, and the
// ships inside them, are still alive on the member nodes. When the peer wakes
// they must stop at their next batch because their capture is no longer
// staged, having read no guest page outside the member lock (this is a -race
// test: the next round's Step and prepare run beside them), and the next
// round must commit state equal to the oracle's.
func TestOrphanedShipStopsAtNextBatch(t *testing.T) {
	// 1.5 MiB a VM: about six batches a member once most pages are dirty,
	// more than chunkPipelineWidth, so a member's fifth batch waits for a slot.
	const pages, pageSize = 384, 4096
	layout := paperLayout(t)
	tr := obs.NewTracer(0)
	gate := newFrameGate(wire.MsgDeltaChunkOK)
	const slow = 2
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		opts := NodeOptions{Tracer: tr}
		if i == slow {
			opts.Listen = gate.listen
		}
		n, err := NewNodeWith("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	t.Cleanup(func() { gate.set(true) }) // runs before the daemons close: they wait for their handlers
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, 4242)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetObserver(tr, nil)
	coord.SetRPCTimeout(1500 * time.Millisecond) // the nodes' own peer calls have no deadline
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	shadow, err := NewShadowWith(layout, pages, pageSize, 4242, "")
	if err != nil {
		t.Fatal(err)
	}
	step := func(n uint64) {
		t.Helper()
		if err := coord.Step(n); err != nil {
			t.Fatal(err)
		}
		shadow.Step(n)
	}
	step(8 * pages)
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()

	step(8 * pages)
	gate.set(false)
	if err := coord.Checkpoint(); err == nil {
		t.Fatal("a round whose parity peer never acknowledges should time out and abort")
	}
	shadow.Abort()
	stalled := coord.RoundStats()
	if !stalled.Aborted || stalled.TraceID == 0 {
		t.Fatalf("stalled round: %+v", stalled)
	}
	if tr.OpenSpans() == 0 {
		t.Fatal("no prepare handler outlived the aborted round: nothing was orphaned")
	}
	// The guests run and the next round prepares while the orphans wake up.
	step(pages)
	gate.set(true)
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("round after the aborted one: %v", err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); tr.OpenSpans() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans of the aborted round never closed", tr.OpenSpans())
		}
	}
	stopped := 0
	for _, s := range tr.TraceSpans(stalled.TraceID) {
		if strings.HasPrefix(s.Name, "ship ") && strings.Contains(s.Err, "no longer staged") {
			stopped++
		}
	}
	if stopped == 0 {
		t.Error("no orphaned ship stopped on a capture that was no longer staged")
	}
	// And the cluster is none the worse for it.
	step(pages)
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// TestStaleBatchOfAbortedAttemptIsRefused: one node's request batches are
// held on their way to the parity peers while the round times out and aborts
// and the guests run on; released once the abort has dropped their streams
// and before the retry prepares, each carries the aborted attempt's render of
// a stream the retry cuts to the same shape (every page dirty both times). A
// keeper that took one would open the retry's stream with it, drop the retry's
// own chunks as re-deliveries and commit parity of guest bytes from before the
// Step. It must refuse it by its attempt, and the retry must commit state
// equal to the oracle's.
func TestStaleBatchOfAbortedAttemptIsRefused(t *testing.T) {
	const pages, pageSize = 16, 64 // one single-chunk batch a member
	layout := paperLayout(t)
	tr := obs.NewTracer(0)
	gate := newFrameGate(wire.MsgDeltaChunk)
	const held = 0
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		opts := NodeOptions{Tracer: tr}
		if i == held {
			opts.Dialer = gate.dial
		}
		n, err := NewNodeWith("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	t.Cleanup(func() { gate.set(true) }) // runs before the daemons close: they wait for their handlers
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, 4243)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetObserver(tr, nil)
	coord.SetRPCTimeout(500 * time.Millisecond)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	shadow, err := NewShadowWith(layout, pages, pageSize, 4243, "")
	if err != nil {
		t.Fatal(err)
	}
	step := func(n uint64) {
		t.Helper()
		if err := coord.Step(n); err != nil {
			t.Fatal(err)
		}
		shadow.Step(n)
	}
	step(16 * pages)
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()

	step(16 * pages)
	for _, ms := range nodes[held].snapshotMembers() {
		if n := ms.mem.Machine().DirtyCount(); n != pages {
			t.Fatalf("%q has %d of %d pages dirty: the retry's stream would not have the stale one's shape", ms.cfg.Name, n, pages)
		}
	}
	gate.set(false)
	if err := coord.Checkpoint(); err == nil {
		t.Fatal("a round whose batches never leave should time out and abort")
	}
	shadow.Abort()
	step(pages)
	gate.set(true)
	for deadline := time.Now().Add(10 * time.Second); tr.OpenSpans() != 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d spans of the aborted round never closed", tr.OpenSpans())
		}
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("retry of the aborted round: %v", err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// captureTwin is the in-process side of TestStreamedRoundsMatchCaptureOracle:
// one core.Member per VM and one core.MKeeper per parity block, fed whole
// deltas from CaptureDeltaInto through FoldInto — no chunks, no sockets, no
// staging.
type captureTwin struct {
	members map[string]*core.Member
	keepers map[[2]int]*core.MKeeper // by {group, parity index}
}

// TestStreamedRoundsMatchCaptureOracle is the differential test of the
// streamed round: the same guest writes go to a cluster and to an in-process
// twin; the cluster commits and aborts rounds over sockets, the twin captures
// whole deltas with CaptureDeltaInto and folds them with FoldInto +
// DrainPendingRanges, the keeper's independent oracle path. After
// every round both must hold the same committed images, parity blocks, epochs
// and dirty bits. Page sizes sit around the XOR and compare kernels' tails,
// the chunk size cuts inside pages, and the RS m=2 shape puts parity[1] of a
// group on the host of one of its members: that member's batch buffer is
// shared by a remote send and a self-call whose handler folds straight from it.
func TestStreamedRoundsMatchCaptureOracle(t *testing.T) {
	for _, ps := range []int{1, 7, 4096, 4097} {
		for _, rs2 := range []bool{false, true} {
			for _, skip := range []bool{false, true} {
				name := fmt.Sprintf("ps=%d/rs2=%v/skip=%v", ps, rs2, skip)
				t.Run(name, func(t *testing.T) { streamedVsCaptureOracle(t, ps, rs2, skip) })
			}
		}
	}
}

func streamedVsCaptureOracle(t *testing.T, ps int, rs2, skip bool) {
	const pages = 80
	layout := paperLayout(t)
	if rs2 {
		var err error
		if layout, err = cluster.BuildDistributedGroups(7, 1, 2, 3); err != nil {
			t.Fatal(err)
		}
	}
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	coord, err := NewCoordinator(layout, addrs, pages, ps, 99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	// Chunk edges fall inside pages.
	coord.SetChunkSize(2*ps + ps/2 + 1)
	coord.SetDedup(skip)
	if rs2 {
		// Set after validation, the way a degraded recovery would leave it.
		g := &layout.Groups[0]
		host, _ := layout.VM(g.Members[0])
		g.ParityNodes[1] = host.Node
	}
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}

	twin := captureTwin{members: map[string]*core.Member{}, keepers: map[[2]int]*core.MKeeper{}}
	var names []string
	for _, v := range layout.VMs {
		m, err := vm.NewMachine(v.Name, pages, ps)
		if err != nil {
			t.Fatal(err)
		}
		if twin.members[v.Name], err = core.NewMember(m); err != nil {
			t.Fatal(err)
		}
		names = append(names, v.Name)
	}
	sort.Strings(names)
	for _, g := range layout.Groups {
		zero := map[string][]byte{}
		for _, m := range g.Members {
			zero[m] = make([]byte, pages*ps)
		}
		for idx := range g.ParityNodes {
			k, err := core.NewMKeeper(g.Index, idx, layout.Tolerance, zero)
			if err != nil {
				t.Fatal(err)
			}
			twin.keepers[[2]int{g.Index, idx}] = k
		}
	}
	hosted := func(name string) *memberState {
		t.Helper()
		v, _ := layout.VM(name)
		ms, err := nodes[v.Node].member(name)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}

	// write applies one seeded batch of guest writes to both sides: every page
	// of one VM (hot: at 4 KiB pages its delta fills more than one batch) and
	// n more anywhere — fresh content, store-backs of the bytes already there,
	// and flips of a page's last byte alone.
	rng := rand.New(rand.NewSource(int64(ps)*8 + 1))
	write := func(hot string, n int) {
		for w := 0; w < pages+n; w++ {
			name, page, kind := hot, w, 0
			if w >= pages {
				name, page, kind = names[rng.Intn(len(names))], rng.Intn(pages), rng.Intn(4)
			}
			fresh := make([]byte, ps)
			rng.Read(fresh)
			mutate := func(p []byte) {
				switch kind {
				case 0, 1:
					copy(p, fresh)
				case 2: // store-back
				default:
					p[len(p)-1] ^= fresh[0] | 1
				}
			}
			ms := hosted(name)
			ms.mu.Lock()
			ms.mem.Machine().MutatePage(page, mutate)
			ms.mu.Unlock()
			twin.members[name].Machine().MutatePage(page, mutate)
		}
	}
	compare := func(when string) {
		t.Helper()
		for _, name := range names {
			ms, tm := hosted(name), twin.members[name]
			ms.mu.Lock()
			switch {
			case ms.mem.Staged() != nil:
				t.Errorf("%s: %q still has a staged capture", when, name)
			case ms.mem.Epoch() != tm.Epoch():
				t.Errorf("%s: %q at epoch %d, oracle at %d", when, name, ms.mem.Epoch(), tm.Epoch())
			case !bytes.Equal(ms.mem.CommittedImage(), tm.CommittedImage()):
				t.Errorf("%s: committed image of %q diverges from the oracle", when, name)
			case !slices.Equal(ms.mem.Machine().DirtyPages(), tm.Machine().DirtyPages()):
				t.Errorf("%s: dirty pages of %q are %v, oracle has %v", when, name, ms.mem.Machine().DirtyPages(), tm.Machine().DirtyPages())
			}
			ms.mu.Unlock()
		}
		for _, g := range layout.Groups {
			for idx, pn := range g.ParityNodes {
				nodes[pn].mu.Lock()
				ks := nodes[pn].keepers[g.Index]
				nodes[pn].mu.Unlock()
				if ks == nil {
					t.Fatalf("%s: node %d keeps no parity of group %d", when, pn, g.Index)
				}
				tk := twin.keepers[[2]int{g.Index, idx}]
				ks.mu.Lock()
				switch {
				case ks.keeper.ParityIndex() != idx:
					t.Errorf("%s: node %d keeps parity[%d] of group %d, layout says [%d]", when, pn, ks.keeper.ParityIndex(), g.Index, idx)
				case ks.keeper.Streams() != 0 || ks.keeper.StagedPages() != 0:
					t.Errorf("%s: parity[%d] of group %d still holds %d streams, %d staged pages", when, idx, g.Index, ks.keeper.Streams(), ks.keeper.StagedPages())
				case !bytes.Equal(ks.keeper.Parity(), tk.Parity()):
					t.Errorf("%s: parity[%d] of group %d diverges from the oracle", when, idx, g.Index)
				}
				for _, m := range g.Members {
					if ks.keeper.Epoch(m) != tk.Epoch(m) {
						t.Errorf("%s: parity[%d] of group %d folded %q to epoch %d, oracle to %d", when, idx, g.Index, m, ks.keeper.Epoch(m), tk.Epoch(m))
					}
				}
				ks.mu.Unlock()
			}
		}
		if t.Failed() {
			t.FailNow()
		}
	}

	// The first member of group 0 is the one whose parity[1] is local under rs2.
	hot := layout.Groups[0].Members[0]
	for round, abort := range []bool{false, true, true, false} {
		write(hot, 40)
		when := fmt.Sprintf("round %d (abort=%v)", round, abort)
		if !abort {
			if err := coord.Checkpoint(); err != nil {
				t.Fatalf("%s: %v", when, err)
			}
			for _, g := range layout.Groups {
				epochs := map[string]uint64{}
				pending := make([][]byte, len(g.ParityNodes))
				for idx := range pending {
					pending[idx] = make([]byte, pages*ps)
				}
				for _, name := range g.Members {
					d, err := twin.members[name].CaptureDeltaInto(nil)
					if err != nil {
						t.Fatal(err)
					}
					epochs[name] = d.Epoch
					for idx, buf := range pending {
						for _, p := range d.Pages {
							if err := twin.keepers[[2]int{g.Index, idx}].FoldInto(buf, name, p.Index*ps, p.Data); err != nil {
								t.Fatal(err)
							}
						}
					}
				}
				for idx, buf := range pending {
					if err := twin.keepers[[2]int{g.Index, idx}].DrainPendingRanges(buf, epochs, [][2]int{{0, len(buf)}}); err != nil {
						t.Fatal(err)
					}
				}
			}
			compare(when)
			continue
		}
		// Prepare everywhere, then abort everywhere. What must be dirty
		// afterwards is worked out from the oracle's pages alone: every dirty
		// page, or under the skip only those that differ from the committed
		// image.
		for i, n := range nodes {
			if _, err := n.handle(&wire.Message{Type: wire.MsgPrepare, Epoch: coord.Epoch() + 1}); err != nil {
				t.Fatalf("%s: prepare node %d: %v", when, i, err)
			}
		}
		for i, n := range nodes {
			if _, err := n.handle(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1}); err != nil {
				t.Fatalf("%s: abort node %d: %v", when, i, err)
			}
		}
		for _, name := range names {
			tm := twin.members[name]
			committed := tm.CommittedImage()
			var want []int
			for _, p := range tm.Machine().DirtyPages() {
				if !skip || !bytes.Equal(tm.Machine().Page(p), committed[p*ps:(p+1)*ps]) {
					want = append(want, p)
				}
			}
			tm.Stage(skip)
			tm.Unstage()
			if got := tm.Machine().DirtyPages(); !slices.Equal(got, want) {
				t.Fatalf("%s: oracle %q dirty after unstage %v, want %v", when, name, got, want)
			}
		}
		compare(when)
	}
}

// TestKeeperFootprint: a keeper holds its parity block plus at most the most
// pages any one round has folded — not a second image-sized buffer. On the
// paper layout with 1 MiB images, twenty sparse rounds (one aborted) are
// driven prepare by prepare, so each round's page set is read off the
// members' staged captures, independently of the keepers; after every
// prepare, commit and abort each keeper's committed, staged and free bytes
// must stay within its block plus that group's largest round so far, times
// the page size, and the rounds must commit what the shadow model holds.
func TestKeeperFootprint(t *testing.T) {
	const pages, pageSize = 256, 4096
	layout := paperLayout(t)
	coord, nodes := sizedCluster(t, layout, pages, pageSize, 0)
	shadow, err := NewShadowWith(layout, pages, pageSize, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	maxTouched := map[int]int{} // by group
	check := func(when string) {
		t.Helper()
		for _, g := range layout.Groups {
			for _, pn := range g.ParityNodes {
				nodes[pn].mu.Lock()
				ks := nodes[pn].keepers[g.Index]
				nodes[pn].mu.Unlock()
				ks.mu.Lock()
				held, size := ks.keeper.Footprint(), ks.keeper.Size()
				ks.mu.Unlock()
				if bound := size + maxTouched[g.Index]*core.ParityPageSize; held > bound {
					t.Fatalf("%s: the keeper of group %d holds %d bytes, over its %d-byte block plus %d pages (%d)",
						when, g.Index, held, size, maxTouched[g.Index], bound)
				}
			}
		}
	}
	for round := 0; round < 20; round++ {
		if err := coord.Step(4); err != nil {
			t.Fatal(err)
		}
		shadow.Step(4)
		epoch := coord.Epoch() + 1
		for i, n := range nodes {
			if _, err := n.handle(&wire.Message{Type: wire.MsgPrepare, Epoch: epoch}); err != nil {
				t.Fatalf("round %d: prepare node %d: %v", round, i, err)
			}
		}
		for _, g := range layout.Groups {
			touched := map[int]bool{}
			for _, name := range g.Members {
				v, _ := layout.VM(name)
				ms, err := nodes[v.Node].member(name)
				if err != nil {
					t.Fatal(err)
				}
				ms.mu.Lock()
				for _, r := range ms.mem.Staged().Runs {
					for pi := r.First; pi < r.First+r.Len; pi++ {
						for pp := pi * pageSize / core.ParityPageSize; pp <= ((pi+1)*pageSize-1)/core.ParityPageSize; pp++ {
							touched[pp] = true
						}
					}
				}
				ms.mu.Unlock()
			}
			maxTouched[g.Index] = max(maxTouched[g.Index], len(touched))
		}
		check(fmt.Sprintf("round %d prepared", round))
		msg, what := &wire.Message{Type: wire.MsgCommit, Epoch: epoch}, "committed"
		if round == 7 {
			msg, what = &wire.Message{Type: wire.MsgAbort, Epoch: epoch}, "aborted"
		}
		for i, n := range nodes {
			if _, err := n.handle(msg); err != nil {
				t.Fatalf("round %d: %s node %d: %v", round, what, i, err)
			}
		}
		if what == "committed" {
			coord.epoch.Store(epoch)
			shadow.Commit()
		}
		check(fmt.Sprintf("round %d %s", round, what))
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// TestMemberFootprint: a member holds its image plus at most the most pages
// any one round has written — not a second, committed image. On the paper
// layout with 1 MiB images, twenty sparse rounds (one aborted, one rolled back
// between prepare and commit) are driven prepare by prepare, so each round's
// written pages are read off the members' staged captures, independently of
// the members' own accounting; after every prepare, commit, abort and
// rollback each member's live image, pre-images and free pages must stay
// within its image plus its largest round so far, times the page size, and
// the rounds must commit what the shadow model holds.
func TestMemberFootprint(t *testing.T) {
	const pages, pageSize = 256, 4096
	layout := paperLayout(t)
	coord, nodes := sizedCluster(t, layout, pages, pageSize, 0)
	shadow, err := NewShadowWith(layout, pages, pageSize, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	hosted := func(name string) *memberState {
		t.Helper()
		v, _ := layout.VM(name)
		ms, err := nodes[v.Node].member(name)
		if err != nil {
			t.Fatal(err)
		}
		return ms
	}
	maxWritten := map[string]int{} // by VM
	check := func(when string) {
		t.Helper()
		for _, v := range layout.VMs {
			ms := hosted(v.Name)
			ms.mu.Lock()
			held, image := ms.mem.Footprint(), int(ms.mem.Machine().ImageBytes())
			ms.mu.Unlock()
			if bound := image + maxWritten[v.Name]*pageSize; held > bound {
				t.Fatalf("%s: member %q holds %d bytes, over its %d-byte image plus %d pages (%d)",
					when, v.Name, held, image, maxWritten[v.Name], bound)
			}
		}
	}
	send := func(round int, what string, msg *wire.Message) {
		t.Helper()
		for i, n := range nodes {
			if _, err := n.handle(msg); err != nil {
				t.Fatalf("round %d: %s node %d: %v", round, what, i, err)
			}
		}
	}
	for round := 0; round < 20; round++ {
		if err := coord.Step(4); err != nil {
			t.Fatal(err)
		}
		shadow.Step(4)
		epoch := coord.Epoch() + 1
		send(round, "prepare", &wire.Message{Type: wire.MsgPrepare, Epoch: epoch})
		for _, v := range layout.VMs {
			ms := hosted(v.Name)
			ms.mu.Lock()
			maxWritten[v.Name] = max(maxWritten[v.Name], ms.mem.Staged().PageCount())
			ms.mu.Unlock()
		}
		check(fmt.Sprintf("round %d prepared", round))
		switch round {
		case 7:
			send(round, "abort", &wire.Message{Type: wire.MsgAbort, Epoch: epoch})
		case 13:
			send(round, "roll back", &wire.Message{Type: wire.MsgRollback})
			if err := shadow.Recover(&cluster.Plan{}, coord.Epoch()); err != nil {
				t.Fatal(err)
			}
		default:
			send(round, "commit", &wire.Message{Type: wire.MsgCommit, Epoch: epoch})
			coord.epoch.Store(epoch)
			shadow.Commit()
		}
		check(fmt.Sprintf("round %d done", round))
	}
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// TestRoundPoolBalance: a round's buffers — the sender's batch buffers and
// the receiver's frames — each have one owner
// that returns them on every exit, so warm rounds that commit, abort, or lose
// a parity peer in the middle of a ship draw from the pool instead of the
// heap; and a dense round allocates bookkeeping, not payload: under a tenth of
// the bytes it ships (TotalAlloc is a count, so the gate does not move with
// the host's speed).
func TestRoundPoolBalance(t *testing.T) {
	const pages, pageSize = 384, 4096 // 4608 pages a round: more than one pool class retains
	layout := paperLayout(t)
	const victim = 3
	nodes := make([]*Node, layout.Nodes)
	dialers := make([]*mortalDialer, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		dialers[i] = &mortalDialer{}
		n, err := NewNodeWith("127.0.0.1:0", NodeOptions{Dialer: dialers[i].dial})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	revive := func() {
		for _, d := range dialers {
			d.budget.Store(1 << 40)
		}
	}
	for _, d := range dialers {
		d.victim = addrs[victim] // before the first dial
	}
	revive()
	coord, err := NewCoordinator(layout, addrs, pages, pageSize, 777)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	// The heap gate reads the best commit round: a round that re-dials after a
	// peer death, or whose in-flight depth exceeds every earlier round's (the
	// race detector reschedules freely), allocates connection and pool buffers
	// that are not what it is about; payload allocated per round would show in
	// every round.
	heapFrac := 1.0
	commitRound := func() {
		t.Helper()
		if err := coord.Step(3000); err != nil {
			t.Fatal(err)
		}
		var m0, m1 goruntime.MemStats
		goruntime.ReadMemStats(&m0)
		if err := coord.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		goruntime.ReadMemStats(&m1)
		heapFrac = min(heapFrac, float64(m1.TotalAlloc-m0.TotalAlloc)/float64(coord.RoundStats().BytesShipped))
	}
	abortRound := func() {
		t.Helper()
		if err := coord.Step(3000); err != nil {
			t.Fatal(err)
		}
		attempt := nextAttempt(coord)
		for i, n := range nodes {
			if _, err := n.handle(&wire.Message{Type: wire.MsgPrepare, Epoch: coord.Epoch() + 1, Arg: attempt}); err != nil {
				t.Fatalf("prepare node %d: %v", i, err)
			}
		}
		for i, n := range nodes {
			if _, err := n.handle(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1, Arg: attempt}); err != nil {
				t.Fatalf("abort node %d: %v", i, err)
			}
		}
	}
	// The victim's connections die once each peer has read two or three of its
	// batch acknowledgements (about 60 bytes apiece); the round aborts, and the
	// peer is back for the next one.
	dyingRound := func() {
		t.Helper()
		if err := coord.Step(3000); err != nil {
			t.Fatal(err)
		}
		for _, d := range dialers {
			d.budget.Store(150)
		}
		if err := coord.Checkpoint(); err == nil {
			t.Fatal("a round whose parity peer dies mid-ship should abort")
		}
		revive()
	}
	cycle := func() {
		commitRound()
		abortRound()
		commitRound()
		dyingRound()
		commitRound()
	}
	cycle()
	heapFrac = 1
	// Five rounds of twelve members at seven or eight batches each: what the
	// warm pool may still miss is a burst deeper than the first cycle's.
	const batches = 5 * 12 * 7
	if grew := poolMisses(cycle); grew > batches/8 {
		t.Errorf("a warm commit/abort/peer-death cycle of over %d batches grew bufpool misses by %d", batches, grew)
	}
	if heapFrac > 0.1 {
		t.Errorf("every warm dense round allocated over a tenth of the bytes it shipped (best %.1f%%)", 100*heapFrac)
	} else {
		t.Logf("best warm dense round allocated %.1f%% of the bytes it shipped", 100*heapFrac)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if len(committed) != len(layout.VMs) || coord.Epoch() != 6 {
		t.Fatalf("after two cycles: %d checksums, epoch %d", len(committed), coord.Epoch())
	}
}
