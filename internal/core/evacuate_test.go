package core

import (
	"bytes"
	"fmt"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/migrate"
	"dvdc/internal/vm"
)

func TestEvacuatePreservesLiveAndCommittedState(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 1, 30)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 2, 10) // live (uncommitted) changes must survive evacuation

	live := map[string][]byte{}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		live[name] = m.Image()
	}

	rep, err := c.EvacuateNode(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Moves) != len(layout.VMsOnNode(0))+0 && len(rep.Moves) == 0 {
		t.Fatalf("no moves in report: %+v", rep)
	}
	if rep.Degraded {
		t.Error("evacuation with spare nodes should preserve orthogonality")
	}
	// Unlike failure recovery there is NO rollback: live state is intact.
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		if !bytes.Equal(m.Image(), live[name]) {
			t.Errorf("VM %q live state changed by evacuation", name)
		}
	}
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
	// The moved VMs must keep participating: their uncommitted dirt gets
	// captured in the next round, and a later real failure still recovers.
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 3, 20)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	churn(t, c, 4, 15)
	if _, err := c.EvacuateNode(2, nil); err != nil {
		t.Fatal(err)
	}
	// The dirty pages from before the evacuation must enter this round.
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	committed := map[string][]byte{}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		committed[name] = m.Image()
	}
	// Now a node that received evacuated VMs fails for real.
	victim := c.Layout().VMs[0].Node
	if _, err := c.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		if !bytes.Equal(m.Image(), committed[name]) {
			t.Errorf("VM %q lost state after post-evacuation failure", name)
		}
	}
}

func TestEvacuateWithDedupIndex(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Most pages are still zero: an index holding a zero machine dedups them.
	churn(t, c, 5, 5)
	idx := migrate.NewHashIndex()
	zm, _ := c.Machine(c.VMNames()[0])
	_ = zm
	zero, err := newZeroMachine(16, 64)
	if err != nil {
		t.Fatal(err)
	}
	idx.AddMachine(zero)
	rep, err := c.EvacuateNode(1, idx)
	if err != nil {
		t.Fatal(err)
	}
	var deduped int64
	for _, mv := range rep.Moves {
		deduped += mv.Stats.BytesDeduped
	}
	if deduped == 0 {
		t.Error("expected some dedup against the zero-page index")
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestEvacuateDegradedOnPaperLayout(t *testing.T) {
	// The 4-node paper layout has no spare node: evacuation succeeds but is
	// degraded, like recovery.
	c := paperCluster(t)
	churn(t, c, 6, 10)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.EvacuateNode(3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Degraded {
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
					c, err := NewCluster(layout, 4, 32)
					if err != nil {
						t.Fatal(err)
					}
					churn(t, c, int64(n), 3)
					if err := c.CheckpointRound(); err != nil {
						t.Fatal(err)
					}
					shape := fmt.Sprintf("%d nodes, groups of %d, %d stacks, evacuate %d", nodes, size, stacks, n)
					if _, err := c.EvacuateNode(n, nil); err != nil {
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
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if err := c.RepairNode(0); err != nil {
		t.Fatal(err)
	}
	if c.Layout().Survives(1) {
		t.Fatal("node 1 holds no two elements of one group; the case is vacuous")
	}
	churn(t, c, 13, 10)
	live := map[string][]byte{}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		live[name] = m.Image()
	}
	rep, err := c.EvacuateNode(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if vms, par := c.Layout().VMsOnNode(1), c.Layout().ParityGroupsOnNode(1); len(vms)+len(par) != 0 {
		t.Fatalf("node 1 still hosts %v and parity of %v", vms, par)
	}
	if len(rep.Moves) == 0 {
		t.Fatal("no VM moved")
	}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		if !bytes.Equal(m.Image(), live[name]) {
			t.Errorf("VM %q live state changed by evacuation", name)
		}
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatal(err)
	}
}

func TestEvacuateValidation(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.EvacuateNode(-1, nil); err == nil {
		t.Error("negative node should fail")
	}
	if _, err := c.EvacuateNode(99, nil); err == nil {
		t.Error("out-of-range node should fail")
	}
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EvacuateNode(0, nil); err == nil {
		t.Error("evacuating a down node should fail")
	}
}

// newZeroMachine builds a fresh zeroed machine for dedup indexing.
func newZeroMachine(pages, pageSize int) (*vm.Machine, error) {
	return vm.NewMachine("zero-template", pages, pageSize)
}
