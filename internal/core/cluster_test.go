package core_test

// These tests hold core's participant rules — a Member's staged capture,
// rollback and adoption, an MKeeper's folds and rebuilt blocks, PlanShards'
// rebuild rule — over whole clusters, driven by the one protocol
// implementation that runs them: the runtime's Cluster over its in-memory
// network. Rounds, recoveries, repairs, rebalances and evacuations are the
// runtime's own; the checks read committed images and parity blocks straight
// from its daemons.

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/runtime"
)

func newCluster(t *testing.T, layout *cluster.Layout, pages, pageSize int) *runtime.Cluster {
	t.Helper()
	c, err := runtime.NewInProcess(layout, pages, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	return c
}

func paperCluster(t *testing.T) *runtime.Cluster {
	t.Helper()
	layout, err := cluster.Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	return newCluster(t, layout, 16, 64)
}

func churn(t *testing.T, c *runtime.Cluster, seed int64, writesPerVM int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, v := range c.Layout().VMs {
		m, err := c.Machine(v.Name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < writesPerVM; i++ {
			m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
		}
	}
}

// images snapshots every VM's live image.
func images(t *testing.T, c *runtime.Cluster) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	for _, v := range c.Layout().VMs {
		m, err := c.Machine(v.Name)
		if err != nil {
			t.Fatal(err)
		}
		out[v.Name] = m.Image()
	}
	return out
}

// sameImages reports every VM whose live image differs from want.
func sameImages(t *testing.T, c *runtime.Cluster, want map[string][]byte, what string) {
	t.Helper()
	for name, img := range images(t, c) {
		if !bytes.Equal(img, want[name]) {
			t.Errorf("%s: VM %q differs", what, name)
		}
	}
}

// fail kills nodes and recovers the cluster over them.
func fail(c *runtime.Cluster, nodes ...int) (*cluster.Plan, error) {
	c.Kill(nodes...)
	return c.RecoverNodes(nodes...)
}

// repair restarts a killed node's daemon and returns it to service.
func repair(t *testing.T, c *runtime.Cluster, node int) {
	t.Helper()
	if err := c.Start(node); err != nil {
		t.Fatal(err)
	}
	if err := c.Repair(node); err != nil {
		t.Fatal(err)
	}
}

func TestClusterCheckpointMaintainsParity(t *testing.T) {
	c := paperCluster(t)
	if err := c.VerifyParity(); err != nil {
		t.Fatalf("initial parity: %v", err)
	}
	var dirty, shipped int64
	for round := 0; round < 4; round++ {
		churn(t, c, int64(round), 25)
		for _, v := range c.Layout().VMs {
			m, _ := c.Machine(v.Name)
			dirty += int64(m.DirtyCount())
		}
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		shipped += c.RoundStats().DeltaRawBytes
		if err := c.VerifyParity(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Every dirty page ships whole, once, to the group's one keeper.
	if c.Epoch() != 4 || dirty == 0 || shipped != dirty*64 {
		t.Errorf("epoch %d, %d delta bytes shipped for %d dirty pages of 64 bytes", c.Epoch(), shipped, dirty)
	}
}

func TestClusterFailAnyNodeRecovers(t *testing.T) {
	for node := 0; node < 4; node++ {
		c := paperCluster(t)
		churn(t, c, 7, 30)
		if err := c.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		committed := images(t, c)
		// Extra uncommitted churn that recovery must roll back.
		churn(t, c, 8, 10)

		plan, err := fail(c, node)
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		if n := len(plan.VMs()); n != 3 {
			t.Errorf("node %d: lost %d VMs, want 3", node, n)
		}
		// Every VM (reconstructed or rolled back) must hold the committed
		// checkpoint state.
		sameImages(t, c, committed, fmt.Sprintf("node %d", node))
		if err := c.VerifyParity(); err != nil {
			t.Errorf("node %d: parity invalid after recovery: %v", node, err)
		}
	}
}

func TestClusterContinuesAfterRecovery(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 1, 20)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fail(c, 2); err != nil {
		t.Fatal(err)
	}
	// The cluster must keep checkpointing and keep parity consistent after
	// the (degraded) recovery.
	for round := 0; round < 3; round++ {
		churn(t, c, int64(100+round), 15)
		if err := c.Checkpoint(); err != nil {
			t.Fatalf("round %d after recovery: %v", round, err)
		}
		if err := c.VerifyParity(); err != nil {
			t.Fatalf("round %d after recovery: %v", round, err)
		}
	}
}

func TestClusterDoubleFailureRejected(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 3, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fail(c, 0); err != nil {
		t.Fatal(err)
	}
	// Node 0's VMs were re-placed degraded; a second failure must now be
	// reported as data loss for at least one choice of node.
	anyRejected := false
	for n := 1; n < 4; n++ {
		if !c.Layout().Survives(n) {
			anyRejected = true
		}
	}
	if !anyRejected {
		t.Error("after degraded recovery, some second failure should be fatal")
	}
}

func TestClusterFailDownNodeFails(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 4, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fail(c, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.RecoverNodes(1); err == nil {
		t.Error("recovering a recovered node should error")
	}
	repair(t, c, 1)
	if err := c.Repair(1); err == nil {
		t.Error("repairing an up node should error")
	}
}

func TestClusterWithToleranceTwoLayoutSurvivesTwoFailures(t *testing.T) {
	// 8 nodes, groups of 4 at tolerance 1: a spare-rich layout, so recovery
	// stays orthogonal and a second failure remains recoverable.
	layout, err := cluster.BuildDistributedGroups(8, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, layout, 8, 32)
	churn(t, c, 5, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	plan, err := fail(c, 0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degraded {
		t.Error("recovery with spare nodes should not degrade")
	}
	churn(t, c, 6, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Sequential second failure (after recovery + new checkpoint) must also
	// be recoverable.
	if _, err := fail(c, 3); err != nil {
		t.Fatalf("second sequential failure: %v", err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Error(err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := runtime.NewInProcess(nil, 4, 64); err == nil {
		t.Error("nil layout should fail")
	}
	layout, _ := cluster.Paper12VM()
	if _, err := runtime.NewInProcess(layout, 0, 64); err == nil {
		t.Error("zero pages should fail")
	}
}

func TestClusterMachineLookup(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Machine("nope"); err == nil {
		t.Error("unknown VM should fail")
	}
	vms := c.Layout().VMs
	if len(vms) != 12 {
		t.Errorf("%d VMs, want 12", len(vms))
	}
	if m, err := c.Machine(vms[0].Name); err != nil || m == nil {
		t.Error("lookup of known VM failed")
	}
}

func TestClusterRebalanceAfterDegradedRecovery(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 1, 30)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	plan, err := fail(c, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded {
		t.Fatal("expected degraded recovery on the 4-node layout")
	}
	if c.Layout().Validate() == nil {
		t.Fatal("layout should be degraded")
	}
	// Still degraded while node 2 is down: rebalance must fail (no room).
	if _, err := c.Rebalance(); err == nil {
		t.Error("rebalance without repaired node should fail")
	}
	// Repair and rebalance: strict orthogonality returns, state intact.
	repair(t, c, 2)
	live := images(t, c)
	rb, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(rb.Steps) == 0 {
		t.Fatal("rebalance should have moved something")
	}
	if err := c.Layout().Validate(); err != nil {
		t.Errorf("layout not orthogonal after rebalance: %v", err)
	}
	sameImages(t, c, live, "after rebalance")
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	// The rebalanced cluster keeps working: checkpoint, fail another node.
	churn(t, c, 2, 15)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fail(c, 0); err != nil {
		t.Fatalf("failure after rebalance: %v", err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterRebalanceNoopWhenOrthogonal(t *testing.T) {
	c := paperCluster(t)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Rebalance()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Errorf("orthogonal cluster rebalance moved %d things", len(plan.Steps))
	}
}

// TestEvacuatePreservesLiveAndCommittedState: an evacuation right after a
// commit moves every VM and parity block off the node with nothing lost and
// nobody rolled back — every VM's image is what it was — and parity intact.
// With uncommitted writes on the node it is refused: a move carries the
// committed image, and the old host will not drop a VM with dirty pages.
func TestEvacuatePreservesLiveAndCommittedState(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, layout, 16, 64)
	churn(t, c, 1, 30)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 2, 10)
	if _, err := c.Evacuate(0); err == nil {
		t.Fatal("an evacuation of VMs with uncommitted writes went through")
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	live := images(t, c)
	plan, err := c.Evacuate(0)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.VMs()) == 0 {
		t.Fatalf("no VM moved: %+v", plan)
	}
	if plan.Degraded {
		t.Error("evacuation with spare nodes should preserve orthogonality")
	}
	sameImages(t, c, live, "after evacuation")
	if got := c.Layout().VMsOnNode(0); len(got) != 0 {
		t.Errorf("node 0 still hosts %v", got)
	}
	if got := c.Layout().ParityGroupsOnNode(0); len(got) != 0 {
		t.Errorf("node 0 still holds parity %v", got)
	}
	if err := c.VerifyParity(); err != nil {
		t.Errorf("parity invalid after evacuation: %v", err)
	}
}

func TestEvacuateThenCheckpointAndFail(t *testing.T) {
	// The moved VMs must keep participating: their next writes get captured
	// in the next round, and a later real failure still recovers.
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c := newCluster(t, layout, 16, 64)
	churn(t, c, 3, 20)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evacuate(2); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 4, 15)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	committed := images(t, c)
	// Now a node that received evacuated VMs fails for real.
	victim := c.Layout().VMs[0].Node
	if _, err := fail(c, victim); err != nil {
		t.Fatal(err)
	}
	sameImages(t, c, committed, "after post-evacuation failure")
}

func TestEvacuateDegradedOnPaperLayout(t *testing.T) {
	// The 4-node paper layout has no spare node: evacuation succeeds but is
	// degraded, like recovery.
	c := paperCluster(t)
	churn(t, c, 6, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	plan, err := c.Evacuate(3)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded {
		t.Error("4-node evacuation should be degraded")
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

// TestEvacuateNeverStacksParity sweeps RS m = 2 layouts — 4 to 8 nodes,
// groups of 2 to nodes-2, one or two stacks — and evacuates every node of
// each. A node may hold at most one parity block of a group: one holding two
// takes both with it when it fails. Every evacuation must also leave the node
// empty and the parity verifiable.
func TestEvacuateNeverStacksParity(t *testing.T) {
	for nodes := 4; nodes <= 8; nodes++ {
		for size := 2; size <= nodes-2; size++ {
			for stacks := 1; stacks <= 2; stacks++ {
				for n := 0; n < nodes; n++ {
					layout, err := cluster.BuildDistributedGroups(nodes, stacks, 2, size)
					if err != nil {
						t.Fatal(err)
					}
					c, err := runtime.NewInProcess(layout, 4, 32)
					if err != nil {
						t.Fatal(err)
					}
					churn(t, c, int64(n), 3)
					if err := c.Checkpoint(); err != nil {
						t.Fatal(err)
					}
					shape := fmt.Sprintf("%d nodes, groups of %d, %d stacks, evacuate %d", nodes, size, stacks, n)
					if _, err := c.Evacuate(n); err != nil {
						t.Fatalf("%s: %v", shape, err)
					}
					for _, g := range c.Layout().Groups {
						if p := g.ParityNodes; p[0] == p[1] {
							t.Errorf("%s: both parity blocks of group %d on node %d", shape, g.Index, p[0])
						}
					}
					if vms, par := c.Layout().VMsOnNode(n), c.Layout().ParityGroupsOnNode(n); len(vms)+len(par) != 0 {
						t.Errorf("%s: node still hosts %v and parity of %v", shape, vms, par)
					}
					if err := c.VerifyParity(); err != nil {
						t.Errorf("%s: %v", shape, err)
					}
					c.Close()
				}
			}
		}
	}
}

// TestEvacuateDegradedNode: after a degraded recovery and the failed node's
// repair, a node holds two elements of one group. Evacuating it loses
// nothing, so it must succeed even though failing it would exceed the
// group's tolerance, and the cluster must keep checkpointing.
func TestEvacuateDegradedNode(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 12, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fail(c, 0); err != nil {
		t.Fatal(err)
	}
	repair(t, c, 0)
	if c.Layout().Survives(1) {
		t.Fatal("node 1 holds no two elements of one group; the case is vacuous")
	}
	live := images(t, c)
	plan, err := c.Evacuate(1)
	if err != nil {
		t.Fatal(err)
	}
	if vms, par := c.Layout().VMsOnNode(1), c.Layout().ParityGroupsOnNode(1); len(vms)+len(par) != 0 {
		t.Fatalf("node 1 still hosts %v and parity of %v", vms, par)
	}
	if len(plan.VMs()) == 0 {
		t.Fatal("no VM moved")
	}
	sameImages(t, c, live, "after evacuation")
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 13, 10)
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestEvacuateValidation(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Evacuate(-1); err == nil {
		t.Error("negative node should fail")
	}
	if _, err := c.Evacuate(99); err == nil {
		t.Error("out-of-range node should fail")
	}
	if err := c.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if _, err := fail(c, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Evacuate(0); err == nil {
		t.Error("evacuating a down node should fail")
	}
}
