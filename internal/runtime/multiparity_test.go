package runtime

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/wire"
)

// tolerance2Cluster spins up a 7-node, tolerance-2 cluster over TCP.
func tolerance2Cluster(t *testing.T) (*Coordinator, []*Node, *cluster.Layout) {
	t.Helper()
	layout, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	coord, nodes := testCluster(t, layout)
	return coord, nodes, layout
}

func TestMultiParitySetupAndRounds(t *testing.T) {
	coord, _, layout := tolerance2Cluster(t)
	for round := 0; round < 3; round++ {
		if err := coord.Step(40); err != nil {
			t.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	sums, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if len(sums) != len(layout.VMs) {
		t.Errorf("checksums for %d VMs, want %d", len(sums), len(layout.VMs))
	}
}

// TestConfiguredKeeperStartsAtZeroParity: setup builds every keeper around a
// zero block instead of folding the members' all-zero images; both RS rows
// must read back as core.NewMKeeper computes them over zero images.
func TestConfiguredKeeperStartsAtZeroParity(t *testing.T) {
	coord, _, layout := tolerance2Cluster(t)
	g := layout.Groups[0]
	zero := map[string][]byte{}
	for _, m := range g.Members {
		zero[m] = make([]byte, 16*64)
	}
	for idx, pn := range g.ParityNodes {
		ref, err := core.NewMKeeper(g.Index, idx, layout.Tolerance, zero)
		if err != nil {
			t.Fatal(err)
		}
		got, _, gotIdx := readBlock(t, nil, coord.addrs[pn], "parity", "", g.Index)
		if gotIdx != idx || !bytes.Equal(got, ref.Parity()) {
			t.Errorf("configured parity[%d] (served as [%d]) differs from the keeper over zero images", idx, gotIdx)
		}
	}
}

// TestVMRebuiltFromParityAloneKeepsTheEpoch: with groups of two members and
// two parity blocks on six nodes, killing both members' hosts leaves a group
// whose VMs come back from its parity blocks alone, with no image reply to
// read an epoch from. They must come back at the committed epoch like every
// other VM, and the next round must commit what the shadow holds.
func TestVMRebuiltFromParityAloneKeepsTheEpoch(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(6, 1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	down := []int{0, 1}
	parityOnly := false
	for _, g := range layout.Groups {
		all := true
		for _, m := range g.Members {
			v, _ := layout.VM(m)
			all = all && slices.Contains(down, v.Node)
		}
		parityOnly = parityOnly || all
	}
	if !parityOnly {
		t.Fatalf("no group has every member on nodes %v", down)
	}
	coord, nodes := testCluster(t, layout)
	shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	shadowRounds(t, coord, shadow, 3)
	for _, v := range down {
		nodes[v].Close()
	}
	plan, err := coord.RecoverNodes(down...)
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Recover(plan, coord.Epoch()); err != nil {
		t.Fatal(err)
	}
	states, err := coord.VMStates()
	if err != nil {
		t.Fatal(err)
	}
	for name, s := range states {
		if s.Epoch != coord.Epoch() {
			t.Errorf("%q is at epoch %d after recovery, the cluster committed %d", name, s.Epoch, coord.Epoch())
		}
	}
	shadowRounds(t, coord, shadow, 1)
	if err := oracleDiff(t, coord, shadow); err != nil {
		t.Fatal(err)
	}
}

func TestSimultaneousDoubleNodeDeathOverTCP(t *testing.T) {
	coord, nodes, _ := tolerance2Cluster(t)
	if err := coord.Step(60); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(30); err != nil { // uncommitted churn
		t.Fatal(err)
	}

	// Two daemons die at once.
	nodes[1].Close()
	nodes[4].Close()
	plan, err := coord.RecoverNodes(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) == 0 {
		t.Fatal("empty recovery plan")
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range committed {
		if after[vmName] != want {
			t.Errorf("VM %q state lost in double failure", vmName)
		}
	}
	// The cluster keeps checkpointing on the 5 survivors.
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestAllDoubleDeathPairsOverTCP(t *testing.T) {
	if testing.Short() {
		t.Skip("O(n^2) socket clusters")
	}
	layout, err := cluster.BuildDistributedGroups(6, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < layout.Nodes; a++ {
		for b := a + 1; b < layout.Nodes; b++ {
			coord, nodes := testCluster(t, layout.Clone())
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
			nodes[a].Close()
			nodes[b].Close()
			if _, err := coord.RecoverNodes(a, b); err != nil {
				t.Fatalf("pair (%d,%d): %v", a, b, err)
			}
			after, err := coord.Checksums()
			if err != nil {
				t.Fatalf("pair (%d,%d): %v", a, b, err)
			}
			for vmName, want := range committed {
				if after[vmName] != want {
					t.Errorf("pair (%d,%d): VM %q diverged", a, b, vmName)
				}
			}
			coord.Close()
			for _, n := range nodes {
				n.Close()
			}
		}
	}
}

func TestSequentialDoubleDeathOverTCP(t *testing.T) {
	coord, nodes, _ := tolerance2Cluster(t)
	if err := coord.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	nodes[0].Close()
	if _, err := coord.RecoverNodes(0); err != nil {
		t.Fatal(err)
	}
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	committed, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	nodes[3].Close()
	if _, err := coord.RecoverNodes(3); err != nil {
		t.Fatal(err)
	}
	after, err := coord.Checksums()
	if err != nil {
		t.Fatal(err)
	}
	for vmName, want := range committed {
		if after[vmName] != want {
			t.Errorf("VM %q diverged through sequential failures", vmName)
		}
	}
}

func TestTripleDeathExceedsTolerance(t *testing.T) {
	coord, nodes, layout := tolerance2Cluster(t)
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	// Find a triple that defeats some group.
	for a := 0; a < layout.Nodes; a++ {
		for b := a + 1; b < layout.Nodes; b++ {
			for cc := b + 1; cc < layout.Nodes; cc++ {
				if coord.Layout().Survives(a, b, cc) {
					continue
				}
				nodes[a].Close()
				nodes[b].Close()
				nodes[cc].Close()
				if _, err := coord.RecoverNodes(a, b, cc); err == nil {
					t.Error("unsurvivable triple accepted")
				}
				return
			}
		}
	}
	t.Skip("no unsurvivable triple in this layout")
}

// TestDegradedDoubleFailureCyclesKeepBothParityBlocks is the regression test
// for the degraded re-home collision: on 6 nodes with RS m=2 a double failure
// leaves four survivors for groups of 3+2 elements, so recovery must
// co-locate. The planner used to be free to put both parity blocks of one
// group on one node, where the keeper map (keyed by group) silently replaced
// parity[0] with parity[1] and a later recovery died with "served parity[0],
// wanted [1]". Three kill → recover → repair → rebalance cycles on the
// benchmark's alternating victim schedule, checked against the shadow after
// every recovery and every post-repair round.
func TestDegradedDoubleFailureCyclesKeepBothParityBlocks(t *testing.T) {
	layout, err := cluster.BuildDistributedGroups(6, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	coord, nodes := testCluster(t, layout)
	shadow, err := NewShadowWith(layout, 16, 64, 12345, "")
	if err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		got, err := coord.Checksums()
		if err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		for name, want := range shadow.Checksums() {
			if got[name] != want {
				t.Fatalf("%s: %q diverges from the shadow", when, name)
			}
		}
	}
	round := func(when string) {
		t.Helper()
		shadowRounds(t, coord, shadow, 1)
		check(when)
	}
	round("first round")
	for cycle, victims := range [][]int{{0, 1}, {4, 5}, {0, 1}} {
		for _, v := range victims {
			nodes[v].Close()
		}
		plan, err := coord.RecoverNodes(victims...)
		if err != nil {
			t.Fatalf("cycle %d: recover %v: %v", cycle, victims, err)
		}
		if err := shadow.Recover(plan, coord.Epoch()); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("cycle %d after recovery", cycle))
		for _, v := range victims {
			n, err := NewNode(nodes[v].Addr())
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { n.Close() })
			nodes[v] = n
			if err := coord.Repair(v); err != nil {
				t.Fatalf("cycle %d: repair %d: %v", cycle, v, err)
			}
		}
		rplan, err := coord.Rebalance()
		if err != nil {
			t.Fatalf("cycle %d: rebalance: %v", cycle, err)
		}
		if err := shadow.Rebalance(rplan, coord.Epoch()); err != nil {
			t.Fatal(err)
		}
		round(fmt.Sprintf("cycle %d post-repair round", cycle))
	}
}

// TestSecondKeeperOfAGroupIsRefused pins the keeper map's contract: a node
// keeps one parity block per group, so a configure or a parity rebuild naming a
// second block of the group with a different parity index fails loudly rather
// than replacing the first. Rebuilding the same index in place is fine, and a
// parity-pointer update saying the block now lives elsewhere drops the stale
// copy, after which the node may take another block of that group.
func TestSecondKeeperOfAGroupIsRefused(t *testing.T) {
	coord, nodes, layout := tolerance2Cluster(t)
	if err := coord.Step(20); err != nil {
		t.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	g := layout.Groups[0]
	node := nodes[g.ParityNodes[0]]
	rebuild := func(idx int) error {
		rc := coord.groupRebuild(g.Index)
		rc.ParityPeers, rc.Lost = nil, []lostElement{{Parity: idx, Target: g.ParityNodes[0]}}
		text, err := encodeJSON(rc)
		if err != nil {
			t.Fatal(err)
		}
		_, err = node.handle(&wire.Message{Type: wire.MsgReconstruct, Group: int32(g.Index), Text: text})
		return err
	}
	held := func() int {
		node.mu.Lock()
		defer node.mu.Unlock()
		ks, ok := node.keepers[g.Index]
		if !ok {
			return -1
		}
		return ks.keeper.ParityIndex()
	}
	if err := rebuild(1); err == nil {
		t.Fatal("second keeper of the group accepted")
	}
	if held() != 0 {
		t.Fatalf("refused rebuild disturbed the held block: now parity[%d]", held())
	}
	if err := rebuild(0); err != nil {
		t.Fatalf("rebuilding the held block in place: %v", err)
	}
	// parity[0] moved to another node: the stale copy goes, parity[1] may come.
	moved, err := encodeJSON([]parityUpdate{{Group: g.Index, Idx: 0, Node: g.ParityNodes[1]}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.handle(&wire.Message{Type: wire.MsgSetParityBatch, Text: moved}); err != nil {
		t.Fatal(err)
	}
	if held() != -1 {
		t.Fatal("stale keeper survived the parity-pointer update")
	}
	if err := rebuild(1); err != nil {
		t.Fatalf("taking parity[1] after parity[0] moved away: %v", err)
	}

	kc := KeeperConfig{Group: 0, Tolerance: 2, Members: g.Members, Pages: 16, PageSize: 64}
	kc1 := kc
	kc1.ParityIdx = 1
	text, err := encodeJSON(NodeConfig{NodeID: g.ParityNodes[0], Peers: coord.addrs, Keepers: []KeeperConfig{kc, kc1}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := node.handle(&wire.Message{Type: wire.MsgConfigure, Text: text}); err == nil {
		t.Fatal("configure with two parity blocks of one group accepted")
	}
}
