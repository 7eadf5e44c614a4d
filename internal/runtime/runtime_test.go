package runtime

import (
	goruntime "runtime"
	"testing"

	"dvdc/internal/cluster"
)

// testCluster spins up one node daemon per layout node on loopback and a
// coordinator over them.
func testCluster(t *testing.T, layout *cluster.Layout) (*Coordinator, []*Node) {
	t.Helper()
	return testClusterWith(t, layout, NodeOptions{})
}

// testClusterWith is testCluster with every daemon started with opts.
func testClusterWith(t *testing.T, layout *cluster.Layout, opts NodeOptions) (*Coordinator, []*Node) {
	t.Helper()
	nodes := make([]*Node, layout.Nodes)
	addrs := map[int]string{}
	for i := range nodes {
		n, err := NewNodeWith("127.0.0.1:0", opts)
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
	coord, err := NewCoordinator(layout, addrs, 16, 64, 12345)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Setup(); err != nil {
		t.Fatal(err)
	}
	return coord, nodes
}

func paperLayout(t *testing.T) *cluster.Layout {
	t.Helper()
	l, err := cluster.Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func TestSetupAndCheckpointRounds(t *testing.T) {
	coord, _ := testCluster(t, paperLayout(t))
	for round := 0; round < 3; round++ {
		if err := coord.Step(50); err != nil {
			t.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if coord.Epoch() != 3 {
		t.Errorf("epoch = %d, want 3", coord.Epoch())
	}
	sums, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != 12 {
		t.Errorf("checksums for %d VMs, want 12", len(sums))
	}
}

// TestChecksumsCopyNoImage: a host hashes a committed image where it lies,
// under the member's lock, so one Checksums over twelve 1 MiB VMs allocates
// less than one image. A copy per VM would be 12 MiB.
func TestChecksumsCopyNoImage(t *testing.T) {
	const pages, pageSize = 256, 4096
	coord, _ := sizedCluster(t, paperLayout(t), pages, pageSize, 0)
	if _, err := coord.Checksums(); err != nil { // dials every connection
		t.Fatal(err)
	}
	var m0, m1 goruntime.MemStats
	goruntime.ReadMemStats(&m0)
	if _, err := coord.Checksums(); err != nil {
		t.Fatal(err)
	}
	goruntime.ReadMemStats(&m1)
	if got := m1.TotalAlloc - m0.TotalAlloc; got >= pages*pageSize {
		t.Errorf("one Checksums over %d VMs allocated %d bytes; want under one %d-byte image", len(coord.Layout().VMs), got, pages*pageSize)
	}
}

func TestKillNodeAndRecoverRestoresCommittedState(t *testing.T) {
	for victim := 0; victim < 4; victim++ {
		coord, nodes := testCluster(t, paperLayout(t))
		if err := coord.Step(80); err != nil {
			t.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		committed, err := coord.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		// Uncommitted churn: must disappear after recovery's rollback.
		if err := coord.Step(40); err != nil {
			t.Fatal(err)
		}

		nodes[victim].Close() // node dies with 3 VMs and 1 parity block
		plan, err := coord.RecoverNodes(victim)
		if err != nil {
			t.Fatalf("victim %d: %v", victim, err)
		}
		if len(plan.Steps) != 4 {
			t.Errorf("victim %d: %d recovery steps, want 4", victim, len(plan.Steps))
		}

		after, err := coord.Checksums()
		if err != nil {
			t.Fatal(err)
		}
		for vmName, want := range committed {
			if after[vmName] != want {
				t.Errorf("victim %d: VM %q checksum changed after recovery", victim, vmName)
			}
		}
	}
}

func TestClusterKeepsWorkingAfterRecovery(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodes[1].Close()
	if _, err := coord.RecoverNodes(1); err != nil {
		t.Fatal(err)
	}
	// Post-recovery the cluster must run more rounds, including parity
	// updates to re-homed keepers.
	for round := 0; round < 3; round++ {
		if err := coord.Step(30); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	if coord.Epoch() != 4 {
		t.Errorf("epoch = %d, want 4", coord.Epoch())
	}
}

func TestSecondRecoveryAfterRepairlessFailureFails(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	if _, err := coord.RecoverNodes(0); err != nil {
		t.Fatal(err)
	}
	// The 4-node layout recovered degraded; a second node death now exceeds
	// tolerance for at least one group and planning must fail.
	nodes[2].Close()
	if _, err := coord.RecoverNodes(2); err == nil {
		t.Error("second failure should be unrecoverable (degraded single parity)")
	}
}

func TestRecoveryWithSpareNodesStaysOrthogonal(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	coord, nodes := testCluster(t, layout)
	if err := coord.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	nodes[2].Close()
	plan, err := coord.RecoverNodes(2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degraded {
		t.Error("recovery should preserve orthogonality with spare nodes")
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range committed {
		if after[vmName] != want {
			t.Errorf("VM %q state lost", vmName)
		}
	}
	// Sequential second failure must also recover (groups are small).
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodes[5].Close()
	if _, err := coord.RecoverNodes(5); err != nil {
		t.Fatalf("second sequential failure: %v", err)
	}
}

func TestCheckpointAfterAbortedRoundStillConsistent(t *testing.T) {
	coord, nodes := testCluster(t, paperLayout(t))
	if err := coord.Step(30); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	// Kill a node, then attempt a checkpoint: prepare fails, round aborts.
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	nodes[3].Close()
	if err := coord.Checkpoint(); err == nil {
		t.Fatal("checkpoint with a dead node should fail")
	}
	if coord.Epoch() != 1 {
		t.Errorf("epoch advanced to %d despite failed round", coord.Epoch())
	}
	// Recovery must land the cluster back on the committed epoch.
	if _, err := coord.RecoverNodes(3); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range committed {
		if after[vmName] != want {
			t.Errorf("VM %q diverged through abort+recovery", vmName)
		}
	}
	// And further rounds succeed.
	if err := coord.Step(10); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestNewCoordinatorValidation(t *testing.T) {
	layout := paperLayout(t)
	if _, err := NewCoordinator(nil, nil, 4, 64, 1); err == nil {
		t.Error("nil layout should fail")
	}
	if _, err := NewCoordinator(layout, map[int]string{}, 4, 64, 1); err == nil {
		t.Error("missing addresses should fail")
	}
	addrs := map[int]string{0: "a", 1: "b", 2: "c", 3: "d"}
	if _, err := NewCoordinator(layout, addrs, 0, 64, 1); err == nil {
		t.Error("bad geometry should fail")
	}
}
