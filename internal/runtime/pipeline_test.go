package runtime

import (
	"strings"
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/wire"
)

// The ship pipeline's interleavings: a shipment's workers cut and render
// batches under the member lock, so an abort, a retry's Stage (which reuses
// the run list the orphaned workers' cursor points into) and a peer failing
// beside another's fold all land between two batches. These run in make
// race's repeated list.

// pipelineCluster is a live cluster of layout whose members hold pages 4 KiB
// pages, with every node's delta-chunk acknowledgements going through gate
// (if any), node i dialing its peers through dialers[i] (if any) with node
// victim as their victim, and one committed dense round, checked against a
// shadow.
func pipelineCluster(t *testing.T, layout *cluster.Layout, pages int, gate *frameGate, dialers []*mortalDialer, victim int) (*Coordinator, []*Node, *Shadow) {
	t.Helper()
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		opts := NodeOptions{}
		if gate != nil {
			opts.Listen = gate.listen
		}
		if dialers != nil {
			opts.Dialer = dialers[i].dial
		}
		n, err := NewNodeWith("127.0.0.1:0", opts)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { n.Close() })
		nodes[i], addrs[i] = n, n.Addr()
	}
	if gate != nil {
		t.Cleanup(func() { gate.set(true) }) // runs before the daemons close: they wait for their handlers
	}
	for _, d := range dialers {
		d.victim = addrs[victim] // before the first dial
	}
	coord, err := NewCoordinator(layout, addrs, pages, 4096, 5150)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	shadow, err := NewShadowWith(layout, pages, 4096, 5150, "")
	if err != nil {
		t.Fatal(err)
	}
	pipelineStep(t, coord, shadow, uint64(2*pages))
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()
	return coord, nodes, shadow
}

func pipelineStep(t *testing.T, coord *Coordinator, shadow *Shadow, n uint64) {
	t.Helper()
	if err := coord.Step(n); err != nil {
		t.Fatal(err)
	}
	shadow.Step(n)
}

// stalledPrepare starts a hand-driven prepare of the given attempt on node
// m and waits until its batches are waiting on the gate: some folded at their
// keepers, and the chunks received across the cluster steady for a while.
func stalledPrepare(t *testing.T, coord *Coordinator, nodes []*Node, m int, attempt uint64) <-chan error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		_, err := nodes[m].handle(&wire.Message{Type: wire.MsgPrepare, Epoch: coord.Epoch() + 1, Arg: attempt})
		done <- err
	}()
	received := func() (n int64) {
		for _, nd := range nodes {
			nd.statsMu.Lock()
			n += nd.stats.ChunksReceived
			nd.statsMu.Unlock()
		}
		return n
	}
	last, steady := int64(0), 0
	for deadline := time.Now().Add(10 * time.Second); steady < 10; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the prepare's batches never stalled on the gate")
		}
		select {
		case err := <-done:
			t.Fatalf("the prepare finished through a closed gate: %v", err)
		default:
		}
		if n := received(); n > 0 && n == last {
			steady++
		} else {
			last, steady = n, 0
		}
	}
	return done
}

// abortAll aborts attempt on every node, as the coordinator's abort does.
func abortAll(t *testing.T, coord *Coordinator, nodes []*Node, attempt uint64) {
	t.Helper()
	for i, n := range nodes {
		if _, err := n.handle(&wire.Message{Type: wire.MsgAbort, Epoch: coord.Epoch() + 1, Arg: attempt}); err != nil {
			t.Fatalf("abort node %d: %v", i, err)
		}
	}
}

// TestAbortMidShipment: a node's prepare is aborted while its members'
// workers wait on their keepers' acknowledgements. When the acknowledgements
// arrive the workers stop at their next batch — the capture is no longer
// staged — and the prepare fails saying so; the members are unstaged, and the
// next round commits what the shadow does.
func TestAbortMidShipment(t *testing.T) {
	gate := newFrameGate(wire.MsgDeltaChunkOK)
	coord, nodes, shadow := pipelineCluster(t, paperLayout(t), 384, gate, nil, 0)
	pipelineStep(t, coord, shadow, 8*384)
	gate.set(false)
	attempt := nextAttempt(coord)
	done := stalledPrepare(t, coord, nodes, 0, attempt)
	abortAll(t, coord, nodes, attempt)
	gate.set(true)
	if err := <-done; err == nil || !strings.Contains(err.Error(), "no longer staged") {
		t.Fatalf("prepare aborted mid-shipment: %v, want its workers stopped on a capture no longer staged", err)
	}
	for _, ms := range nodes[0].snapshotMembers() {
		ms.mu.Lock()
		staged := ms.mem.Staged()
		ms.mu.Unlock()
		if staged != nil {
			t.Fatalf("%q is still staged after the abort", ms.cfg.Name)
		}
	}
	shadow.Abort()
	pipelineStep(t, coord, shadow, 384)
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// TestOrphanedWorkerAfterRetryRestages: a node's prepare stalls, its attempt
// is aborted, the guests run, and the retry's prepare stages every member
// again — writing its run list into the array the stalled workers' cursors
// point into — and ships while those workers still wait. When the gate opens
// the orphans find their capture no longer staged and stop; the retry's round
// commits what the shadow does. Under -race, a cursor read outside the member
// lock would be reported here.
func TestOrphanedWorkerAfterRetryRestages(t *testing.T) {
	gate := newFrameGate(wire.MsgDeltaChunkOK)
	coord, nodes, shadow := pipelineCluster(t, paperLayout(t), 384, gate, nil, 0)
	pipelineStep(t, coord, shadow, 8*384)
	gate.set(false)
	attempt := nextAttempt(coord)
	orphaned := stalledPrepare(t, coord, nodes, 1, attempt)
	abortAll(t, coord, nodes, attempt)
	shadow.Abort()
	pipelineStep(t, coord, shadow, 384)
	retry := make(chan error, 1)
	go func() { retry <- coord.Checkpoint() }()
	time.Sleep(50 * time.Millisecond) // the retry stages and ships beside the orphans
	gate.set(true)
	if err := <-orphaned; err == nil || !strings.Contains(err.Error(), "no longer staged") {
		t.Fatalf("orphaned prepare: %v, want its workers stopped on a capture no longer staged", err)
	}
	if err := <-retry; err != nil {
		t.Fatalf("retry beside the orphaned workers: %v", err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

// TestPeerFailsMidBatchWhileOtherFolds: on RS m = 2 every batch goes to two
// parity peers. One peer's connections from the other nodes die a few
// acknowledgements into a dense round while the second peer keeps folding:
// the workers that hit the dead peer fail the shipment, the others stop at
// their next batch, and the round aborts having folded batches at the live
// peers. With the peer reachable again the next round commits what the
// shadow does.
func TestPeerFailsMidBatchWhileOtherFolds(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	victim := layout.Groups[0].ParityNodes[1]
	dialers := make([]*mortalDialer, layout.Nodes)
	for i := range dialers {
		dialers[i] = &mortalDialer{}
		dialers[i].budget.Store(1 << 40)
	}
	coord, nodes, shadow := pipelineCluster(t, layout, 256, nil, dialers, victim)
	received := func(n *Node) int64 {
		n.statsMu.Lock()
		defer n.statsMu.Unlock()
		return n.stats.ChunksReceived
	}
	other := layout.Groups[0].ParityNodes[0]
	before := received(nodes[other])
	pipelineStep(t, coord, shadow, 8*256)
	for _, d := range dialers {
		d.budget.Store(150) // two or three acknowledgements
	}
	if err := coord.Checkpoint(); err == nil {
		t.Fatal("a round whose parity peer dies mid-ship should abort")
	}
	shadow.Abort()
	if received(nodes[other]) == before {
		t.Fatalf("node %d folded nothing beside the dying peer", other)
	}
	for _, d := range dialers {
		d.budget.Store(1 << 40)
	}
	pipelineStep(t, coord, shadow, 256)
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	shadow.Commit()
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}
