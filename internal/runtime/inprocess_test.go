package runtime

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/vm"
)

// TestRecoveryMatchesInProcessCluster holds the runtime's recovery to
// core.Cluster's, which run one rebuild rule (core.PlanShards, adoption at the
// committed epoch) over different I/O: sockets and chunk pulls against
// in-process reads. The same workload streams run on a loopback cluster and a
// core.Cluster, both commit two rounds, the guests run on past the last
// commit, and the same nodes fail. Both must plan the same steps (kind,
// group, VM, target, parity slot), end at the same layout, and hold the same
// committed image and epoch for every VM and the same parity block, folded to
// the same member epochs, for every group — before and after one more round
// on the recovered cluster. Cases: every single loss on the paper layout
// (m = 1) and every double loss on BuildDistributedGroups(7, 1, 2, 3) (m = 2).
func TestRecoveryMatchesInProcessCluster(t *testing.T) {
	rs2, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		layout *cluster.Layout
	}{{"xor-m1", paperLayout(t)}, {"rs-m2", rs2}} {
		var downs [][]int
		for a := 0; a < tc.layout.Nodes; a++ {
			if tc.layout.Tolerance == 1 {
				downs = append(downs, []int{a})
			}
			for b := a + 1; b < tc.layout.Nodes && tc.layout.Tolerance == 2; b++ {
				downs = append(downs, []int{a, b})
			}
		}
		for _, down := range downs {
			t.Run(fmt.Sprintf("%s/down-%v", tc.name, down), func(t *testing.T) {
				recoveryMatchesInProcess(t, tc.layout.Clone(), down)
			})
		}
	}
}

func recoveryMatchesInProcess(t *testing.T, layout *cluster.Layout, down []int) {
	const pages, pageSize, seed = 16, 64, 12345 // testCluster's geometry and seed
	coord, nodes := testCluster(t, layout.Clone())
	cl, err := core.NewCluster(layout, pages, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	workloads := map[string]vm.Workload{}
	for _, v := range layout.VMs {
		workloads[v.Name] = newWorkload("", vmWorkloadSeed(seed, v.Name))
	}
	step := func(n int) {
		t.Helper()
		if err := coord.Step(uint64(n)); err != nil {
			t.Fatal(err)
		}
		for name, w := range workloads {
			m, _ := cl.Machine(name)
			for i := 0; i < n; i++ {
				w.Step(m)
			}
		}
	}
	round := func() {
		t.Helper()
		step(40)
		if err := coord.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := cl.CheckpointRound(); err != nil {
			t.Fatal(err)
		}
	}
	round()
	round()
	step(40) // past the last commit: a rebuild must read committed bytes, not live ones

	for _, n := range down {
		nodes[n].Close()
	}
	plan, err := coord.RecoverNodes(down...)
	if err != nil {
		t.Fatal(err)
	}
	report, err := cl.FailNodes(down...)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(plan.Steps, report.Plan.Steps) {
		t.Fatalf("plans differ:\nruntime    %+v\nin-process %+v", plan.Steps, report.Plan.Steps)
	}
	sameState(t, "after recovery", coord, nodes, cl)

	// Respawned VMs run fresh workload streams, seeded as the coordinator
	// seeds them; one more round must commit on both and still agree.
	for _, s := range plan.Steps {
		if s.Kind == cluster.RestoreVM {
			workloads[s.VM] = newWorkload("", vmWorkloadSeed(seed, s.VM)+int64(coord.Epoch())+1)
		}
	}
	round()
	sameState(t, "a round after recovery", coord, nodes, cl)
}

// sameState compares a runtime cluster with an in-process one: layout,
// every VM's committed image and epoch, and every parity block with the
// member epochs its keeper has folded to.
func sameState(t *testing.T, when string, coord *Coordinator, nodes []*Node, cl *core.Cluster) {
	t.Helper()
	rl, cll := coord.Layout(), cl.Layout()
	if !slices.Equal(rl.VMs, cll.VMs) {
		t.Fatalf("%s: VM placements differ:\nruntime    %v\nin-process %v", when, rl.VMs, cll.VMs)
	}
	for gi, g := range rl.Groups {
		if !slices.Equal(g.ParityNodes, cll.Groups[gi].ParityNodes) {
			t.Fatalf("%s: group %d parity on nodes %v, in process %v", when, gi, g.ParityNodes, cll.Groups[gi].ParityNodes)
		}
	}
	for _, v := range rl.VMs {
		img, epoch, _ := readBlock(t, coord.addrs[v.Node], "image", v.Name, 0)
		mem := cl.Member(v.Name)
		if !bytes.Equal(img, mem.CommittedImage()) || epoch != mem.Epoch() {
			t.Errorf("%s: %q committed at epoch %d, in process at %d; images equal: %v",
				when, v.Name, epoch, mem.Epoch(), bytes.Equal(img, mem.CommittedImage()))
		}
	}
	for gi, g := range rl.Groups {
		keepers := cl.Keepers(gi)
		for idx, pn := range g.ParityNodes {
			blk, _, gotIdx := readBlock(t, coord.addrs[pn], "parity", "", gi)
			if gotIdx != idx || !bytes.Equal(blk, keepers[idx].Parity()) {
				t.Errorf("%s: parity[%d] of group %d on node %d (served as [%d]) diverges from the in-process keeper", when, idx, gi, pn, gotIdx)
			}
			n := nodes[pn]
			n.mu.Lock()
			ks := n.keepers[gi]
			n.mu.Unlock()
			ks.mu.Lock()
			for _, m := range g.Members {
				if got, want := ks.keeper.Epoch(m), keepers[idx].Epoch(m); got != want {
					t.Errorf("%s: parity[%d] of group %d has folded %q to epoch %d, in process %d", when, idx, gi, m, got, want)
				}
			}
			ks.mu.Unlock()
		}
	}
}
