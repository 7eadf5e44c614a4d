package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/vm"
)

func paperCluster(t *testing.T) *Cluster {
	t.Helper()
	layout, err := cluster.Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func churn(t *testing.T, c *Cluster, seed int64, writesPerVM int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	for _, name := range c.VMNames() {
		m, err := c.Machine(name)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < writesPerVM; i++ {
			m.TouchPage(rng.Intn(m.NumPages()), rng.Uint64())
		}
	}
}

func TestClusterCheckpointMaintainsParity(t *testing.T) {
	c := paperCluster(t)
	if err := c.VerifyParity(); err != nil {
		t.Fatalf("initial parity: %v", err)
	}
	var dirty int64
	for round := 0; round < 4; round++ {
		churn(t, c, int64(round), 25)
		for _, name := range c.VMNames() {
			m, _ := c.Machine(name)
			dirty += int64(m.DirtyCount())
		}
		if err := c.CheckpointRound(); err != nil {
			t.Fatal(err)
		}
		if err := c.VerifyParity(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	// Every dirty page ships whole, once.
	if c.Stats().Rounds != 4 || dirty == 0 || c.Stats().DeltaBytes != dirty*64 {
		t.Errorf("stats: %+v, %d dirty pages of 64 bytes", c.Stats(), dirty)
	}
}

// TestCheckpointRoundAbortsOnFailedFold: when one group's fold fails, the
// whole round aborts the way the runtime's does — every keeper drops its
// staged pages and every member unstages — so no committed image, parity
// block or epoch moves and the dirty pages wait for the next round, which
// commits them.
func TestCheckpointRoundAbortsOnFailedFold(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 11, 20)
	committed, dirty := map[string][]byte{}, map[string][]int{}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		committed[name], dirty[name] = c.members[name].CommittedImage(), m.DirtyPages()
	}
	// Group 1's first parity block is swapped for a keeper of strangers, so
	// every fold into it is refused.
	good := c.keepers[1][0]
	stranger, err := NewMKeeper(1, 0, 1, map[string][]byte{"stranger": make([]byte, good.Size())})
	if err != nil {
		t.Fatal(err)
	}
	c.keepers[1][0] = stranger
	if err := c.CheckpointRound(); err == nil {
		t.Fatal("a round with a refused fold committed")
	}
	c.keepers[1][0] = good
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		if mem := c.members[name]; mem.Epoch() != 0 || !bytes.Equal(mem.CommittedImage(), committed[name]) {
			t.Errorf("%s: the aborted round moved the member to epoch %d or changed its committed image", name, mem.Epoch())
		}
		if got := m.DirtyPages(); !slices.Equal(got, dirty[name]) {
			t.Errorf("%s: dirty pages after abort %v, want %v", name, got, dirty[name])
		}
	}
	for gi, ks := range c.keepers {
		for _, k := range ks {
			if k.StagedPages() != 0 {
				t.Errorf("parity[%d] of group %d still holds %d staged pages", k.ParityIndex(), gi, k.StagedPages())
			}
		}
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatalf("after the abort: %v", err)
	}
	if c.Stats().Rounds != 0 || c.Stats().DeltaBytes != 0 {
		t.Errorf("the aborted round was counted: %+v", c.Stats())
	}
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Fatalf("after the retry: %v", err)
	}
	for _, name := range c.VMNames() {
		m, _ := c.Machine(name)
		if !bytes.Equal(c.members[name].CommittedImage(), m.Image()) || c.members[name].Epoch() != 1 {
			t.Errorf("%s: the retried round did not commit the live image", name)
		}
	}
}

func TestClusterFailAnyNodeRecovers(t *testing.T) {
	for node := 0; node < 4; node++ {
		c := paperCluster(t)
		churn(t, c, 7, 30)
		if err := c.CheckpointRound(); err != nil {
			t.Fatal(err)
		}
		// Record committed state of every VM.
		committed := map[string][]byte{}
		for _, name := range c.VMNames() {
			m, _ := c.Machine(name)
			committed[name] = m.Image()
		}
		// Extra uncommitted churn that recovery must roll back.
		churn(t, c, 8, 10)

		rep, err := c.FailNode(node)
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		if len(rep.LostVMs) != 3 {
			t.Errorf("node %d: lost %d VMs, want 3", node, len(rep.LostVMs))
		}
		// Every VM (reconstructed or rolled back) must hold the committed
		// checkpoint state.
		for _, name := range c.VMNames() {
			m, _ := c.Machine(name)
			if !bytes.Equal(m.Image(), committed[name]) {
				t.Errorf("node %d: VM %q not at committed state after recovery", node, name)
			}
		}
		if err := c.VerifyParity(); err != nil {
			t.Errorf("node %d: parity invalid after recovery: %v", node, err)
		}
	}
}

func TestClusterContinuesAfterRecovery(t *testing.T) {
	c := paperCluster(t)
	churn(t, c, 1, 20)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(2); err != nil {
		t.Fatal(err)
	}
	// The cluster must keep checkpointing and keep parity consistent after
	// the (degraded) recovery.
	for round := 0; round < 3; round++ {
		churn(t, c, int64(100+round), 15)
		if err := c.CheckpointRound(); err != nil {
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
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(0); err != nil {
		t.Fatal(err)
	}
	// Node 0's VMs were re-placed degraded; a second failure must now be
	// reported as data loss for at least one choice of node.
	anyRejected := false
	for n := 1; n < 4; n++ {
		probe := *c // shallow copy is fine: FailNode checks before mutating
		if !probe.layout.Survives(n) {
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
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.FailNode(1); err == nil {
		t.Error("failing a down node should error")
	}
	if err := c.RepairNode(1); err != nil {
		t.Fatal(err)
	}
	if err := c.RepairNode(1); err == nil {
		t.Error("repairing an up node should error")
	}
}

func TestClusterWithToleranceTwoLayoutSurvivesTwoFailures(t *testing.T) {
	// 8 nodes, groups of 4 with tolerance 1... build a spare-rich layout so
	// recovery stays orthogonal and a second failure remains recoverable.
	layout, err := cluster.BuildDistributedGroups(8, 1, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewCluster(layout, 8, 32)
	if err != nil {
		t.Fatal(err)
	}
	churn(t, c, 5, 10)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	rep, err := c.FailNode(0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Degraded {
		t.Error("recovery with spare nodes should not degrade")
	}
	churn(t, c, 6, 10)
	if err := c.CheckpointRound(); err != nil {
		t.Fatal(err)
	}
	// Sequential second failure (after recovery + new checkpoint) must also
	// be recoverable.
	if _, err := c.FailNode(3); err != nil {
		t.Fatalf("second sequential failure: %v", err)
	}
	if err := c.VerifyParity(); err != nil {
		t.Error(err)
	}
}

func TestNewClusterValidation(t *testing.T) {
	if _, err := NewCluster(nil, 4, 64); err == nil {
		t.Error("nil layout should fail")
	}
	layout, _ := cluster.Paper12VM()
	if _, err := NewCluster(layout, 0, 64); err == nil {
		t.Error("zero pages should fail")
	}
}

func TestClusterMachineLookup(t *testing.T) {
	c := paperCluster(t)
	if _, err := c.Machine("nope"); err == nil {
		t.Error("unknown VM should fail")
	}
	names := c.VMNames()
	if len(names) != 12 {
		t.Errorf("VMNames: %d, want 12", len(names))
	}
	if m, err := c.Machine(names[0]); err != nil || m == nil {
		t.Error("lookup of known VM failed")
	}
	_ = vm.DefaultPageSize // keep the vm import meaningful if geometry changes
}
