package cluster

import (
	"testing"
	"testing/quick"
)

func TestPlanRecoverySingleNodeDVDC(t *testing.T) {
	l, _ := Paper12VM()
	plan, err := l.PlanRecovery(0)
	if err != nil {
		t.Fatal(err)
	}
	// In the 4-node paper layout every group spans all nodes, so recovery
	// must succeed but in degraded (orthogonality-violating) form.
	if !plan.Degraded {
		t.Error("4-node DVDC recovery should be degraded")
	}
	// Node 0 held 3 VMs and 1 parity block: 3 restore + 1 re-home steps.
	var restores, rehomes int
	for _, s := range plan.Steps {
		switch s.Kind {
		case RestoreVM:
			restores++
			if s.VM == "" {
				t.Error("restore step without VM name")
			}
		case RehomeParity:
			rehomes++
			if l.Groups[s.Group].ParityNodes[s.Parity] != 0 {
				t.Errorf("re-home step names parity[%d] of group %d, which is not on the failed node", s.Parity, s.Group)
			}
		}
		if s.TargetNode == 0 {
			t.Error("step targets the failed node")
		}
	}
	if restores != 3 || rehomes != 1 {
		t.Errorf("restores=%d rehomes=%d, want 3/1", restores, rehomes)
	}
}

func TestApplyRecoveryKeepsLayoutValid(t *testing.T) {
	for node := 0; node < 4; node++ {
		l, _ := Paper12VM()
		plan, err := l.PlanRecovery(node)
		if err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		if err := l.Apply(plan); err != nil {
			t.Fatalf("node %d: apply: %v", node, err)
		}
		// Nothing may remain on the failed node.
		if got := l.VMsOnNode(node); len(got) != 0 {
			t.Errorf("node %d still hosts %v after recovery", node, got)
		}
		if got := l.ParityGroupsOnNode(node); len(got) != 0 {
			t.Errorf("node %d still holds parity %v after recovery", node, got)
		}
	}
}

func TestPlanRecoveryRejectsOverTolerance(t *testing.T) {
	l, _ := Paper12VM()
	if _, err := l.PlanRecovery(0, 1); err == nil {
		t.Error("double failure with single parity should be unplannable")
	}
}

func TestPlanRecoveryDoubleFailureWithTolerance2(t *testing.T) {
	// Groups of 4 with 2 parity blocks on 8 nodes: two spare nodes per
	// group, so even a double failure recovers without degradation.
	l, err := BuildDistributedGroups(8, 1, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := l.PlanRecovery(1, 4)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degraded {
		t.Error("recovery with spare nodes should not be degraded")
	}
	if err := l.Apply(plan); err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 4} {
		if len(l.VMsOnNode(n)) != 0 || len(l.ParityGroupsOnNode(n)) != 0 {
			t.Errorf("node %d not evacuated", n)
		}
	}
}

func TestPlanRecoveryFirstShotIsDegraded(t *testing.T) {
	// First-shot: the single group spans every node, so re-placement is
	// necessarily degraded -- the planner must say so, not fail.
	l, _ := BuildFirstShot(4)
	plan, err := l.PlanRecovery(2)
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Degraded {
		t.Error("first-shot recovery should be degraded")
	}
	if err := l.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if l.Validate() == nil {
		t.Error("degraded layout should fail strict validation")
	}
	if err := l.ValidateDegraded(); err != nil {
		t.Errorf("degraded layout should pass relaxed validation: %v", err)
	}
}

func TestPlanRecoveryOrthogonalWhenSpareExists(t *testing.T) {
	// Groups of 3 + 1 parity on 6 nodes: two spare nodes per group.
	l, err := BuildDistributedGroups(6, 1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := l.PlanRecovery(0)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Degraded {
		t.Error("recovery with spare nodes should preserve orthogonality")
	}
	if err := l.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if err := l.Validate(); err != nil {
		t.Errorf("post-recovery layout should validate strictly: %v", err)
	}
}

func TestPlanRecoveryEmptyDownIsNoop(t *testing.T) {
	l, _ := Paper12VM()
	plan, err := l.PlanRecovery()
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != 0 {
		t.Errorf("empty failure set produced %d steps", len(plan.Steps))
	}
}

func TestPlanRecoveryBadNode(t *testing.T) {
	l, _ := Paper12VM()
	if _, err := l.PlanRecovery(-1); err == nil {
		t.Error("negative node should fail")
	}
	if _, err := l.PlanRecovery(99); err == nil {
		t.Error("out-of-range node should fail")
	}
}

// TestPlanEvacuationIgnoresTolerance: after a degraded recovery and the
// repair, node 1 of the paper layout holds two elements of one group. Failing
// it would exceed the tolerance, but evacuating it loses nothing, so its plan
// must move everything off it, and to no down node.
func TestPlanEvacuationIgnoresTolerance(t *testing.T) {
	l, _ := Paper12VM()
	rec, err := l.PlanRecovery(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(rec); err != nil {
		t.Fatal(err)
	}
	if _, err := l.PlanRecovery(1); err == nil {
		t.Fatal("node 1 holds no two elements of one group; the case is vacuous")
	}
	if _, err := l.PlanEvacuation(1, 0); err != nil {
		t.Fatalf("evacuation beside a down node: %v", err)
	}
	plan, err := l.PlanEvacuation(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Steps) != len(l.VMsOnNode(1))+len(l.ParityGroupsOnNode(1)) {
		t.Fatalf("%d steps for %d VMs and %d parity blocks", len(plan.Steps), len(l.VMsOnNode(1)), len(l.ParityGroupsOnNode(1)))
	}
	if err := l.Apply(plan); err != nil {
		t.Fatal(err)
	}
	if len(l.VMsOnNode(1))+len(l.ParityGroupsOnNode(1)) != 0 {
		t.Fatal("node 1 still holds elements after its evacuation")
	}
	if _, err := l.PlanEvacuation(4); err == nil {
		t.Error("out-of-range node accepted")
	}
}

func TestRecoveryBalancesLoad(t *testing.T) {
	// After recovering an 8-node DVDC cluster, no surviving node should be
	// wildly overloaded: the planner picks least-loaded targets.
	l, err := BuildDistributedGroups(8, 2, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := l.PlanRecovery(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Apply(plan); err != nil {
		t.Fatal(err)
	}
	max, min := 0, 1<<30
	for n := 0; n < l.Nodes; n++ {
		if n == 3 {
			continue
		}
		c := len(l.VMsOnNode(n))
		if c > max {
			max = c
		}
		if c < min {
			min = c
		}
	}
	if max-min > 2 {
		t.Errorf("post-recovery load imbalance: min=%d max=%d", min, max)
	}
}

// Property: for any DVDC layout (nodes in [4,10], stacks in [1,3]) and any
// single failed node, recovery plans apply cleanly and evacuate the node.
func TestQuickRecoveryAlwaysEvacuates(t *testing.T) {
	f := func(nRaw, sRaw, failRaw uint8) bool {
		nodes := int(nRaw%7) + 4
		stacks := int(sRaw%3) + 1
		l, err := BuildDistributed(nodes, stacks, 1)
		if err != nil {
			return false
		}
		fail := int(failRaw) % nodes
		plan, err := l.PlanRecovery(fail)
		if err != nil {
			return false
		}
		if err := l.Apply(plan); err != nil {
			return false
		}
		return len(l.VMsOnNode(fail)) == 0 && len(l.ParityGroupsOnNode(fail)) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStepKindString(t *testing.T) {
	if RestoreVM.String() != "restore-vm" || RehomeParity.String() != "rehome-parity" {
		t.Error("StepKind strings wrong")
	}
}

// TestDegradedRecoveryNeverStacksParity: on 6 nodes with m=2 every double
// failure forces degraded placements, and none of them may put two parity
// blocks of one group on the same node — a node keeps one block per group.
func TestDegradedRecoveryNeverStacksParity(t *testing.T) {
	base, err := BuildDistributedGroups(6, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < base.Nodes; a++ {
		for b := a + 1; b < base.Nodes; b++ {
			l := base.Clone()
			plan, err := l.PlanRecovery(a, b)
			if err != nil {
				t.Fatalf("pair (%d,%d): %v", a, b, err)
			}
			if err := l.Apply(plan); err != nil {
				t.Fatalf("pair (%d,%d): %v", a, b, err)
			}
			for _, g := range l.Groups {
				if g.ParityNodes[0] == g.ParityNodes[1] {
					t.Errorf("pair (%d,%d): both parity blocks of group %d landed on node %d", a, b, g.Index, g.ParityNodes[0])
				}
			}
		}
	}
}

// TestDegradedValidationRefusesStackedParity: a degraded layout may put a
// member beside another element of its group, but never two parity blocks of
// one group on one node — no node keeps both — and Apply refuses a degraded
// plan that would stack them.
func TestDegradedValidationRefusesStackedParity(t *testing.T) {
	l, err := BuildDistributedGroups(6, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Groups[0]
	beside := l.Clone()
	beside.VMs[beside.vmIndex[g.Members[0]]].Node = g.ParityNodes[0]
	if err := beside.ValidateDegraded(); err != nil {
		t.Errorf("member beside its group's parity: %v", err)
	}
	stacked := l.Clone()
	stacked.Groups[0].ParityNodes[1] = g.ParityNodes[0]
	if err := stacked.ValidateDegraded(); err == nil {
		t.Errorf("degraded validation accepts group 0's parity on %v", stacked.Groups[0].ParityNodes)
	}
	plan := &Plan{Down: []int{g.ParityNodes[1]}, Degraded: true, Steps: []Step{{
		Kind: RehomeParity, Group: 0, Parity: 1, From: g.ParityNodes[1], TargetNode: g.ParityNodes[0], Degraded: true,
	}}}
	if err := l.Clone().Apply(plan); err == nil {
		t.Errorf("Apply recorded a degraded plan stacking group 0's parity on node %d", g.ParityNodes[0])
	}
}
