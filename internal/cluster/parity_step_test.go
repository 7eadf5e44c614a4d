package cluster

import (
	"fmt"
	"testing"
)

// stepParityLayouts are the shapes Step.Parity is checked on: the paper
// layout and BuildDistributedGroups shapes at m = 1 and m = 2, with and
// without spare nodes.
func stepParityLayouts(t *testing.T) map[string]*Layout {
	t.Helper()
	out := map[string]*Layout{}
	paper, err := Paper12VM()
	if err != nil {
		t.Fatal(err)
	}
	out["paper"] = paper
	for _, sh := range [][4]int{{6, 1, 1, 3}, {7, 1, 2, 3}, {8, 1, 2, 4}, {7, 1, 2, 5}} {
		l, err := BuildDistributedGroups(sh[0], sh[1], sh[2], sh[3])
		if err != nil {
			t.Fatal(err)
		}
		out[fmt.Sprintf("groups%v", sh)] = l
	}
	return out
}

// checkParitySteps holds every RehomeParity step of plan, planned against l,
// to the slot rule: the slot is in range and on a node on accepts for its
// group, and no two steps of a group name one slot. Then it applies the plan
// to a copy of l and checks that each named slot, and nothing else of the
// parity placement, moved to its step's target. It returns how many steps it
// checked.
func checkParitySteps(t *testing.T, what string, l *Layout, plan *Plan, on func(g Group, node int) bool) int {
	t.Helper()
	named := map[[2]int]bool{}
	n := 0
	for _, s := range plan.Steps {
		if s.Kind != RehomeParity {
			continue
		}
		n++
		g := l.Groups[s.Group]
		if s.Parity < 0 || s.Parity >= len(g.ParityNodes) {
			t.Fatalf("%s: step names parity slot %d of group %d, which has %d", what, s.Parity, s.Group, len(g.ParityNodes))
		}
		if !on(g, g.ParityNodes[s.Parity]) {
			t.Errorf("%s: step names parity[%d] of group %d on node %d", what, s.Parity, s.Group, g.ParityNodes[s.Parity])
		}
		key := [2]int{s.Group, s.Parity}
		if named[key] {
			t.Errorf("%s: two steps name parity[%d] of group %d", what, s.Parity, s.Group)
		}
		named[key] = true
	}
	after := l.Clone()
	if err := after.Apply(plan); err != nil {
		t.Fatalf("%s: apply: %v", what, err)
	}
	for gi, g := range after.Groups {
		for i, node := range g.ParityNodes {
			want := l.Groups[gi].ParityNodes[i]
			for _, s := range plan.Steps {
				if s.Kind == RehomeParity && s.Group == gi && s.Parity == i {
					want = s.TargetNode
				}
			}
			if node != want {
				t.Errorf("%s: after apply parity[%d] of group %d is on node %d, want %d", what, i, gi, node, want)
			}
		}
	}
	return n
}

// clashes reports whether node holds more than one element of g.
func (l *Layout) clashes(g Group, node int) bool {
	n := 0
	for _, m := range g.Members {
		if v, _ := l.VM(m); v.Node == node {
			n++
		}
	}
	for _, p := range g.ParityNodes {
		if p == node {
			n++
		}
	}
	return n > 1
}

// TestStepParityNamesTheMovedSlot: all four planners name the parity slot
// each RehomeParity step moves — recovery and evacuation a slot on a down or
// evacuated node, every such slot once; rebalance a slot on a node where the
// group clashes; keeper evacuation a slot on the avoided node — and Apply
// moves exactly the named slots.
func TestStepParityNamesTheMovedSlot(t *testing.T) {
	counts := map[string]int{}
	for name, base := range stepParityLayouts(t) {
		var downSets [][]int
		for a := 0; a < base.Nodes; a++ {
			downSets = append(downSets, []int{a})
			for b := a + 1; b < base.Nodes && base.Tolerance >= 2; b++ {
				downSets = append(downSets, []int{a, b})
			}
		}
		for _, down := range downSets {
			what := fmt.Sprintf("%s: recovery of %v", name, down)
			onDown := func(g Group, node int) bool { return node == down[0] || node == down[len(down)-1] }
			plan, err := base.PlanRecovery(down...)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			n := checkParitySteps(t, what, base, plan, onDown)
			want := 0
			for _, g := range base.Groups {
				for _, p := range g.ParityNodes {
					if onDown(g, p) {
						want++
					}
				}
			}
			if n != want {
				t.Errorf("%s: %d re-home steps for %d parity blocks on the down nodes", what, n, want)
			}
			counts["recovery"] += n

			// The recovered layout, its down nodes repaired, is where
			// rebalance finds clashes.
			rec := base.Clone()
			if err := rec.Apply(plan); err != nil {
				t.Fatal(err)
			}
			if rb, err := rec.PlanRebalance(); err == nil {
				counts["rebalance"] += checkParitySteps(t, what+", rebalanced", rec, rb, rec.clashes)
			}
		}
		for n := 0; n < base.Nodes; n++ {
			what := fmt.Sprintf("%s: evacuation of %d", name, n)
			on := func(g Group, node int) bool { return node == n }
			plan, err := base.PlanEvacuation(n)
			if err != nil {
				t.Fatalf("%s: %v", what, err)
			}
			counts["evacuation"] += checkParitySteps(t, what, base, plan, on)
			if plan, err := base.PlanKeeperEvacuation(n); err == nil {
				counts["keeper evacuation"] += checkParitySteps(t, fmt.Sprintf("%s: keeper evacuation of %d", name, n), base, plan, on)
			}
		}
		// Two parity blocks of one group stacked on one node: rebalance has
		// no member to move off it and must name one of the two slots.
		if base.Tolerance >= 2 {
			for gi := range base.Groups {
				l := base.Clone()
				l.Groups[gi].ParityNodes[1] = l.Groups[gi].ParityNodes[0]
				rb, err := l.PlanRebalance()
				if err != nil {
					continue // no orthogonal target in this shape
				}
				counts["rebalance"] += checkParitySteps(t, fmt.Sprintf("%s: stacked parity of group %d", name, gi), l, rb, l.clashes)
			}
		}
	}
	for _, planner := range []string{"recovery", "evacuation", "rebalance", "keeper evacuation"} {
		if counts[planner] == 0 {
			t.Errorf("no %s plan had a re-home step; the check is vacuous", planner)
		}
	}
}

// TestApplyRefusesABadParitySlot: Apply refuses a parity slot out of range
// or not on its step's From.
func TestApplyRefusesABadParitySlot(t *testing.T) {
	l, err := BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	g := l.Groups[0]
	down := g.ParityNodes[0]
	for _, slot := range []int{-1, 2, 1} { // slot 1 is not on From
		bad := &Plan{Down: []int{down}, Steps: []Step{{Kind: RehomeParity, Group: 0, Parity: slot, From: down, TargetNode: 6}}}
		if err := l.Clone().Apply(bad); err == nil {
			t.Errorf("Apply moved parity slot %d of group 0 from node %d", slot, down)
		}
	}
	for _, slot := range []int{-1, 2} {
		bad := &Plan{Steps: []Step{{Kind: RehomeParity, Group: 0, Parity: slot, TargetNode: 6}}}
		if err := l.Clone().Apply(bad); err == nil {
			t.Errorf("Apply moved parity slot %d of group 0", slot)
		}
	}
}
