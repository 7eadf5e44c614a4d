package runtime

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/transport"
	"dvdc/internal/wire"
)

// TestRepairAndRebalanceOverTCP runs the full lifecycle on the paper's
// 4-node layout across real sockets: degraded recovery, daemon replacement
// on the same address, repair, rebalance, and a subsequent failure that is
// again recoverable.
func TestRepairAndRebalanceOverTCP(t *testing.T) {
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

	// Node 1 dies; recovery is degraded on the tight layout.
	addr := nodes[1].Addr()
	nodes[1].Close()
	plan, err := coord.RecoverNodes(1)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded {
		t.Fatal("expected degraded recovery")
	}
	if coord.Layout().Validate() == nil {
		t.Fatal("layout should be non-orthogonal")
	}

	// A replacement daemon comes up on the same address.
	fresh, err := NewNode(addr)
	if err != nil {
		t.Fatalf("replacement daemon on %s: %v", addr, err)
	}
	t.Cleanup(func() { fresh.Close() })
	if err := coord.Repair(1); err != nil {
		t.Fatal(err)
	}

	// Rebalance right after the recovery (state is committed: recovery
	// rolled everyone back, no steps since).
	rb, err := coord.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Steps) == 0 {
		t.Fatal("rebalance should move something")
	}
	if err := coord.Layout().Validate(); err != nil {
		t.Errorf("layout not orthogonal after rebalance: %v", err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range committed {
		if after[vmName] != want {
			t.Errorf("VM %q state changed through repair+rebalance", vmName)
		}
	}

	// Full protection is back: another round and another failure recover.
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodes[3].Close()
	if _, err := coord.RecoverNodes(3); err != nil {
		t.Fatalf("failure after rebalance: %v", err)
	}
}

func TestRebalanceNoopWhenOrthogonal(t *testing.T) {
	coord, _ := testCluster(t, paperLayout(t))
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	plan, err := coord.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Errorf("orthogonal cluster rebalanced %d steps", len(plan.Steps))
	}
}

func TestEvictRejectsDirtyVM(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	// Find a VM on node 0 and try to evict while dirty.
	vmName := coord.Layout().VMsOnNode(0)[0]
	if _, err := nodes[0].handle(evictMsg(vmName)); err == nil {
		t.Error("evicting a dirty VM should fail")
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := nodes[0].handle(evictMsg(vmName)); err != nil {
		t.Errorf("evicting a quiescent VM should succeed: %v", err)
	}
	if _, err := nodes[0].handle(evictMsg(vmName)); err == nil {
		t.Error("double evict should fail")
	}
}

func TestRepairValidation(t *testing.T) {
	coord, _ := testCluster(t, paperLayout(t))
	if err := coord.Repair(0); err == nil {
		t.Error("repairing an alive node should fail")
	}
}

// TestRepairDialsThroughTheDialer: Repair reaches a rejoined daemon through
// the coordinator's dialer — over TCP and over the in-memory network alike —
// and a repair whose reconfigure the daemon never gets leaves the node dead,
// so the repair can be run again, and the cluster then commits and
// rebalances onto it.
func TestRepairDialsThroughTheDialer(t *testing.T) {
	for _, network := range []string{"tcp", "mem"} {
		t.Run(network, func(t *testing.T) {
			addr := func(int) string { return "127.0.0.1:0" }
			opts := func(int) NodeOptions { return NodeOptions{} }
			ref := &writeRefuser{}
			if network == "mem" {
				mem := transport.NewMemNetwork()
				addr = func(n int) string { return fmt.Sprintf("node%d", n) }
				opts = func(int) NodeOptions { return NodeOptions{Dialer: mem.Dial, Listen: mem.Listen} }
				ref.dial = mem.Dial
			}
			cl, err := startCluster(paperLayout(t), 16, 64, 12345, addr, opts)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(cl.Close)
			ref.addr = cl.addrs[1]
			cl.SetDialer(ref.dialer)
			if err := cl.Setup(); err != nil {
				t.Fatal(err)
			}
			if err := cl.Step(50); err != nil {
				t.Fatal(err)
			}
			if err := cl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			cl.Kill(1)
			if _, err := cl.RecoverNodes(1); err != nil {
				t.Fatal(err)
			}
			if err := cl.Start(1); err != nil {
				t.Fatal(err)
			}
			ref.on.Store(true)
			if err := cl.Repair(1); err == nil {
				t.Fatal("a repair whose reconfigure was refused succeeded")
			}
			if alive := cl.aliveNodes(); slices.Contains(alive, 1) {
				t.Fatalf("node 1 is back in service, unconfigured, after a failed repair: alive %v", alive)
			}
			ref.on.Store(false)
			if err := cl.Repair(1); err != nil {
				t.Fatalf("repair retried: %v", err)
			}
			if err := cl.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			plan, err := cl.Rebalance()
			if err != nil {
				t.Fatal(err)
			}
			if len(cl.Layout().VMsOnNode(1)) == 0 || len(plan.Steps) == 0 {
				t.Fatalf("rebalance placed nothing on the repaired node: %+v", plan)
			}
			if err := cl.VerifyParity(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// writeRefuser is a coordinator dialer over dial (nil = TCP) that, while on,
// fails every write on a connection to addr: the daemon there is up, but no
// request reaches it.
type writeRefuser struct {
	dial transport.DialFunc
	addr string
	on   atomic.Bool
}

func (w *writeRefuser) dialer(addr string, timeout time.Duration) (net.Conn, error) {
	dial := w.dial
	if dial == nil {
		dial = func(addr string, timeout time.Duration) (net.Conn, error) {
			return net.DialTimeout("tcp", addr, timeout)
		}
	}
	c, err := dial(addr, timeout)
	if err != nil || addr != w.addr {
		return c, err
	}
	return &refusingConn{Conn: c, on: &w.on}, nil
}

// evictMsg builds an evict request for a VM.
func evictMsg(vmName string) *wire.Message {
	return &wire.Message{Type: wire.MsgEvict, VM: vmName}
}

// pullRefuser is a node dialer that, while set, fails every write and every
// dial: the node stays up and serves requests, but can pull nothing.
type pullRefuser struct{ on atomic.Bool }

var errPullRefused = errors.New("pull refused")

func (p *pullRefuser) dial(addr string, timeout time.Duration) (net.Conn, error) {
	if p.on.Load() {
		return nil, errPullRefused
	}
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	return &refusingConn{Conn: c, on: &p.on}, nil
}

// refusingConn fails every write while on is set.
type refusingConn struct {
	net.Conn
	on *atomic.Bool
}

func (c *refusingConn) Write(b []byte) (int, error) {
	if c.on.Load() {
		return 0, errPullRefused
	}
	return c.Conn.Write(b)
}

// TestFailedRehomeKeepsLayoutTruthful: a keeper evacuation whose re-home onto
// one target fails — the target refuses the pulls, or already keeps another
// block of the group — returns the error with the layout naming each block's
// real home: the failed step's block stays on the evacuated node, every
// completed step's block is on its target. Every block the layout names
// holds the shadow's parity, and once the evacuated node dies, its recovery
// and the rounds after it commit what the shadow holds. A rebalance re-homes
// parity by the same executor, but only off a node the layout names for two
// blocks of one group, which no node can keep (addKeeper), so the
// evacuation carries the case.
func TestFailedRehomeKeepsLayoutTruthful(t *testing.T) {
	const evacuated = 0
	for _, tc := range []struct {
		name string
		// arm makes the re-home of step s onto n fail and reports which plan
		// steps that fails; the returned disarm undoes it.
		arm func(n *Node, p *pullRefuser, s cluster.Step) (fails func(cluster.Step) bool, disarm func())
	}{
		{"refused-pulls", func(_ *Node, p *pullRefuser, s cluster.Step) (func(cluster.Step) bool, func()) {
			p.on.Store(true)
			return func(o cluster.Step) bool { return o.TargetNode == s.TargetNode }, func() { p.on.Store(false) }
		}},
		{"second-keeper", func(n *Node, _ *pullRefuser, s cluster.Step) (func(cluster.Step) bool, func()) {
			// Only addKeeper's refusal reads the stand-in; it is gone before
			// the next round.
			n.mu.Lock()
			n.keepers[s.Group] = &keeperState{cfg: KeeperConfig{Group: s.Group, ParityIdx: 1 - s.Parity}}
			n.mu.Unlock()
			return func(o cluster.Step) bool { return o == s }, func() {
				n.mu.Lock()
				delete(n.keepers, s.Group)
				n.mu.Unlock()
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			layout, err := cluster.BuildDistributedGroups(8, 1, 2, 3)
			if err != nil {
				t.Fatal(err)
			}
			nodes := make([]*Node, layout.Nodes)
			refusers := make([]*pullRefuser, layout.Nodes)
			addrs := map[int]string{}
			for i := range nodes {
				refusers[i] = &pullRefuser{}
				n, err := NewNodeWith("127.0.0.1:0", NodeOptions{Dialer: refusers[i].dial})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { n.Close() })
				nodes[i], addrs[i] = n, n.Addr()
			}
			coord, err := NewCoordinator(layout, addrs, 16, 64, 12345)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(coord.Close)
			if err := coord.Setup(); err != nil {
				t.Fatal(err)
			}
			shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
			if err != nil {
				t.Fatal(err)
			}
			shadowRounds(t, coord, shadow, 1)

			plan, err := coord.Layout().PlanKeeperEvacuation(evacuated)
			if err != nil {
				t.Fatal(err)
			}
			bad := plan.Steps[0]
			fails, disarm := tc.arm(nodes[bad.TargetNode], refusers[bad.TargetNode], bad)
			completes := 0
			for _, s := range plan.Steps {
				if !fails(s) {
					completes++
				}
			}
			if completes == 0 {
				t.Fatalf("every step of %v fails; the test wants a partial evacuation", plan.Steps)
			}
			if _, err := coord.EvacuateKeepers(evacuated); err == nil {
				t.Fatal("evacuation with a failing re-home succeeded")
			}
			disarm()
			for _, s := range plan.Steps {
				want := s.TargetNode
				if fails(s) {
					want = evacuated
				}
				if got := coord.Layout().Groups[s.Group].ParityNodes[s.Parity]; got != want {
					t.Errorf("layout puts parity[%d] of group %d on node %d after the failed evacuation, want %d",
						s.Parity, s.Group, got, want)
				}
			}
			if err := oracleDiff(t, coord, shadow); err != nil {
				t.Fatalf("after the failed evacuation: %v", err)
			}

			nodes[evacuated].Close()
			rec, err := coord.RecoverNodes(evacuated)
			if err != nil {
				t.Fatalf("recovering the evacuated node: %v", err)
			}
			if err := shadow.Recover(rec, coord.Epoch()); err != nil {
				t.Fatal(err)
			}
			shadowRounds(t, coord, shadow, 2)
			if err := oracleDiff(t, coord, shadow); err != nil {
				t.Fatalf("rounds after recovering the evacuated node: %v", err)
			}
		})
	}
}
