package runtime

import (
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// TestStalledNodeDoesNotBlockPastDeadline proves the coordinator's RPC
// deadline: a node whose handler hangs surfaces as a timeout error within the
// configured budget instead of wedging the control plane forever.
func TestStalledNodeDoesNotBlockPastDeadline(t *testing.T) {
	layout := paperLayout(t)
	nodes := make([]*Node, 3)
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
	// Node 3 is a daemon that configures fine and then hangs on everything.
	stall := make(chan struct{})
	stalled, err := transport.Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		if req.Type == wire.MsgConfigure {
			return &wire.Message{Type: wire.MsgConfigureOK}, nil
		}
		<-stall
		return nil, fmt.Errorf("stalled")
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stalled.Close() })
	t.Cleanup(func() { close(stall) }) // unblock handlers before Close waits on them
	addrs[3] = stalled.Addr()

	coord, err := NewCoordinator(layout, addrs, 16, 64, 7)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coord.SetRPCTimeout(200 * time.Millisecond)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	err = coord.Step(5)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("step against a stalled node should fail")
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("error %v is not a timeout", err)
	}
	if elapsed > 2*time.Second {
		t.Errorf("stalled node blocked the coordinator for %v, deadline is 200ms", elapsed)
	}
}

// commitFailProxy sits in front of one node and, once armed, rejects every
// MsgCommit while forwarding everything else untouched.
func commitFailProxy(t *testing.T, backend string) (string, *atomic.Bool) {
	t.Helper()
	pool := transport.NewPool(backend, transport.PoolOptions{Size: 16})
	var failing atomic.Bool
	s, err := transport.Listen("127.0.0.1:0", func(req *wire.Message) (*wire.Message, error) {
		if failing.Load() && req.Type == wire.MsgCommit {
			return nil, fmt.Errorf("injected commit failure")
		}
		return pool.Call(req)
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		s.Close()
		pool.Close()
	})
	return s.Addr(), &failing
}

// TestCommitFailureDeclaresNodeDeadAndRecovers exercises the commit-phase
// invariant: a node that keeps failing commit through the retry budget is
// declared dead, the epoch still advances on the survivors (commit is not
// undoable), the error names the casualty as a *PartialCommitError, Repair
// refuses the node and no round starts until it is recovered, and
// RecoverNodes restores redundancy. On Fig. 3's dedicated layout the casualty
// keeps no parity and its peers still reach it, so only the refusal keeps a
// round from committing without its VMs and wedging every round after the
// recovery.
func TestCommitFailureDeclaresNodeDeadAndRecovers(t *testing.T) {
	dedicated, err := cluster.BuildDedicated(3, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		layout *cluster.Layout
	}{{"paper12", paperLayout(t)}, {"dedicated", dedicated}} {
		t.Run(tc.name, func(t *testing.T) { commitFailureRecovers(t, tc.layout) })
	}
}

func commitFailureRecovers(t *testing.T, layout *cluster.Layout) {
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
	proxyAddr, failing := commitFailProxy(t, nodes[1].Addr())
	addrs[1] = proxyAddr
	coord, err := NewCoordinator(layout, addrs, 16, 64, 99)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}

	// A clean round first, then a round whose commit fails on node 1.
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	failing.Store(true)
	err = coord.Checkpoint()
	var pce *PartialCommitError
	if !errors.As(err, &pce) {
		t.Fatalf("checkpoint error = %v, want *PartialCommitError", err)
	}
	if len(pce.Nodes) != 1 || pce.Nodes[0] != 1 {
		t.Fatalf("partial commit lost nodes %v, want [1]", pce.Nodes)
	}
	if coord.Epoch() != 2 {
		t.Errorf("epoch = %d after partial commit, want 2 (commit is not undoable)", coord.Epoch())
	}
	stats := coord.RoundStats()
	if len(stats.DeadDuring) != 1 || stats.DeadDuring[0] != 1 {
		t.Errorf("RoundStats.DeadDuring = %v, want [1]", stats.DeadDuring)
	}

	// The node is dead pending recovery: repair must refuse it, and so must a
	// round.
	if err := coord.Repair(1); err == nil {
		t.Error("repair of a mid-commit casualty should fail before recovery")
	}
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err == nil {
		t.Error("a round ran while node 1 owed a recovery")
	}
	if coord.Epoch() != 2 {
		t.Fatalf("epoch = %d after the refused round, want 2", coord.Epoch())
	}

	// Recovery reconstructs node 1's VMs at the committed epoch — possible
	// precisely because the survivors' parity absorbed node 1's prepared
	// deltas before the commit fan-out lost it.
	if _, err := coord.RecoverNodes(1); err != nil {
		t.Fatalf("recovery after partial commit: %v", err)
	}
	if _, err := coord.Checksums(); err != nil {
		t.Fatalf("checksums after recovery: %v", err)
	}

	// The cluster keeps working.
	for r := 0; r < 2; r++ {
		if err := coord.Step(10); err != nil {
			t.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatalf("round %d after recovery: %v", r+1, err)
		}
	}
}

// TestReconfigureResetsNodeState runs one controller session whose recovery
// relocates VMs, then points a brand-new coordinator (fresh layout, same
// daemons) at the cluster. Configure must be a complete assignment: if
// members from the first session leak through, the relocated VM exists on
// two nodes at once and both ship deltas — at different epochs — to the
// same parity keeper ("conflicting staged delta").
func TestReconfigureResetsNodeState(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Recovery moves node 2's VMs onto survivors. The daemon itself stays up:
	// the controller just stops talking to it (the dvdcctl -kill flow).
	if _, err := coord.RecoverNodes(2); err != nil {
		t.Fatal(err)
	}
	coord.Close()

	addrs := map[int]string{}
	for i, n := range nodes {
		addrs[i] = n.Addr()
	}
	coord2, err := NewCoordinator(paperLayout(t), addrs, 16, 64, 54321)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord2.Close)
	if err := coord2.Setup(); err != nil {
		t.Fatal(err)
	}
	if err := coord2.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord2.Checkpoint(); err != nil {
		t.Fatalf("checkpoint under a fresh controller session: %v", err)
	}
	if _, err := coord2.Checksums(); err != nil {
		t.Fatal(err)
	}
}

// TestNodeRestartMidRoundRedials bounces a daemon between two rounds: the
// coordinator's pooled connections to it are stale, and the next round must
// transparently re-dial (recorded in RoundStats.RPCRetries) instead of
// failing the round.
func TestNodeRestartMidRoundRedials(t *testing.T) {
	// A 4-node layout stretched to 5 daemons leaves node 4 hosting nothing,
	// so its daemon can bounce without losing protocol state.
	layout, err := cluster.BuildDistributedGroups(4, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	layout.Nodes = 5
	coord, nodes := testCluster(t, layout)
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// Bounce the spare daemon on its own address.
	addr := nodes[4].Addr()
	if err := nodes[4].Close(); err != nil {
		t.Fatal(err)
	}
	fresh, err := NewNode(addr)
	if err != nil {
		t.Fatalf("restart daemon on %s: %v", addr, err)
	}
	t.Cleanup(func() { fresh.Close() })

	// The next round's fan-out lands on stale pooled connections.
	if err := coord.Checkpoint(); err != nil {
		t.Fatalf("round after daemon restart: %v", err)
	}
	if coord.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", coord.Epoch())
	}
	if got := coord.RoundStats().RPCRetries; got == 0 {
		t.Error("expected the round to record at least one transport retry over the stale connection")
	}
}
