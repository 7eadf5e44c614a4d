package cluster

import (
	"fmt"
	"sort"
)

// PlanRebalance computes the moves that restore strict orthogonality after
// degraded recoveries have co-located group elements (and after the failed
// node has been repaired, making room). VMs are preferred over parity blocks
// as the things to move — live migration is cheaper than a parity
// recomputation and is the mechanism the paper builds on. down lists nodes
// currently out of service (never chosen as targets).
//
// The returned plan reuses the recovery Step vocabulary: RestoreVM steps
// mean "live-migrate this VM to TargetNode", RehomeParity steps mean
// "recompute the group's parity slot Parity on TargetNode". An empty plan means
// the layout is already orthogonal.
func (l *Layout) PlanRebalance(down ...int) (*Plan, error) {
	downSet := map[int]bool{}
	for _, n := range down {
		if n < 0 || n >= l.Nodes {
			return nil, fmt.Errorf("cluster: down node %d out of range [0,%d)", n, l.Nodes)
		}
		downSet[n] = true
	}
	load := make([]int, l.Nodes)
	for _, v := range l.VMs {
		load[v.Node]++
	}
	plan := &Plan{}
	for n := range downSet {
		plan.Down = append(plan.Down, n)
	}
	sort.Ints(plan.Down)

	// Planned extra occupancy per group (moves within this plan).
	planned := map[int]map[int]bool{}
	occupied := func(g Group, exclude map[string]bool, excludeParity map[int]bool) map[int]int {
		occ := map[int]int{}
		for _, m := range g.Members {
			if exclude[m] {
				continue
			}
			v, _ := l.VM(m)
			occ[v.Node]++
		}
		for i, p := range g.ParityNodes {
			if excludeParity[i] {
				continue
			}
			occ[p]++
		}
		for n := range planned[g.Index] {
			occ[n]++
		}
		return occ
	}
	pickTarget := func(g Group, occ map[int]int) (int, error) {
		best, bestLoad := -1, int(^uint(0)>>1)
		for t := 0; t < l.Nodes; t++ {
			if downSet[t] || occ[t] > 0 {
				continue
			}
			if load[t] < bestLoad {
				best, bestLoad = t, load[t]
			}
		}
		if best == -1 {
			return 0, fmt.Errorf("cluster: no orthogonal target for group %d", g.Index)
		}
		if planned[g.Index] == nil {
			planned[g.Index] = map[int]bool{}
		}
		planned[g.Index][best] = true
		return best, nil
	}

	for gi := range l.Groups {
		g := l.Groups[gi]
		movedVMs := map[string]bool{}
		movedParity := map[int]bool{}
		for {
			occ := occupied(g, movedVMs, movedParity)
			// Find a node carrying more than one element of this group, the
			// lowest first, so one layout always yields one plan.
			clash := -1
			for n := 0; n < l.Nodes; n++ {
				if occ[n] > 1 {
					clash = n
					break
				}
			}
			if clash == -1 {
				break
			}
			// Prefer moving a member VM off the clashing node; fall back to
			// a parity block.
			moved := false
			for _, m := range g.Members {
				v, _ := l.VM(m)
				if v.Node != clash || movedVMs[m] {
					continue
				}
				target, err := pickTarget(g, occ)
				if err != nil {
					return nil, err
				}
				plan.Steps = append(plan.Steps, Step{
					Kind: RestoreVM, VM: m, Group: gi, TargetNode: target,
				})
				movedVMs[m] = true
				load[clash]--
				load[target]++
				moved = true
				break
			}
			if moved {
				continue
			}
			for i, p := range g.ParityNodes {
				if p != clash || movedParity[i] {
					continue
				}
				target, err := pickTarget(g, occ)
				if err != nil {
					return nil, err
				}
				plan.Steps = append(plan.Steps, Step{
					Kind: RehomeParity, Group: gi, Parity: i, TargetNode: target,
				})
				movedParity[i] = true
				moved = true
				break
			}
			if !moved {
				return nil, fmt.Errorf("cluster: cannot resolve clash on node %d for group %d", clash, gi)
			}
		}
	}
	return plan, nil
}

// PlanKeeperEvacuation computes the parity moves that drain every parity
// block off one node — the placement response to the telemetry plane flagging
// that node as habitually slow: parity keepers absorb every member's delta
// stream, so a slow keeper stretches each round's prepare window by the whole
// chunk pipeline, while a slow member only stretches its own shipments.
//
// The plan reuses the rebalance Step vocabulary (RehomeParity naming the
// parity slot it moves) and preserves strict
// orthogonality: a target never carries another element of the same group,
// is never the avoided node, never down, and ties break toward the
// least-loaded node (VMs plus already-planned parity). Groups with no legal
// target make the plan fail — in the paper's minimal 4-node layout every
// other node already carries a member of the group, so evacuation is
// structurally impossible and callers must treat that as "cannot rebalance",
// not retry. An empty plan means the node keeps no parity.
func (l *Layout) PlanKeeperEvacuation(avoid int, down ...int) (*Plan, error) {
	if avoid < 0 || avoid >= l.Nodes {
		return nil, fmt.Errorf("cluster: evacuate node %d out of range [0,%d)", avoid, l.Nodes)
	}
	downSet := map[int]bool{avoid: true}
	for _, n := range down {
		if n < 0 || n >= l.Nodes {
			return nil, fmt.Errorf("cluster: down node %d out of range [0,%d)", n, l.Nodes)
		}
		downSet[n] = true
	}
	load := make([]int, l.Nodes)
	for _, v := range l.VMs {
		load[v.Node]++
	}
	plan := &Plan{}
	for n := range downSet {
		if n != avoid {
			plan.Down = append(plan.Down, n)
		}
	}
	sort.Ints(plan.Down)
	for gi := range l.Groups {
		g := l.Groups[gi]
		occ := map[int]bool{}
		for _, m := range g.Members {
			v, _ := l.VM(m)
			occ[v.Node] = true
		}
		for _, p := range g.ParityNodes {
			occ[p] = true
		}
		for i, p := range g.ParityNodes {
			if p != avoid {
				continue
			}
			best, bestLoad := -1, int(^uint(0)>>1)
			for t := 0; t < l.Nodes; t++ {
				if downSet[t] || occ[t] {
					continue
				}
				if load[t] < bestLoad {
					best, bestLoad = t, load[t]
				}
			}
			if best == -1 {
				return nil, fmt.Errorf("cluster: no orthogonal target to evacuate parity %d of group %d off node %d", i, gi, avoid)
			}
			occ[best] = true
			load[best]++
			plan.Steps = append(plan.Steps, Step{
				Kind: RehomeParity, Group: gi, Parity: i, TargetNode: best,
			})
		}
	}
	return plan, nil
}

// ApplyRebalance mutates the layout per a rebalance plan — a RestoreVM step
// moves its VM, a RehomeParity step the parity slot it names — and then
// validates it. A plan of only the steps that completed is recorded as is,
// even when the placement it leaves is degraded; the validation error says so.
func (l *Layout) ApplyRebalance(p *Plan) error {
	for _, s := range p.Steps {
		switch s.Kind {
		case RestoreVM:
			i, ok := l.vmIndex[s.VM]
			if !ok {
				return fmt.Errorf("cluster: rebalance moves unknown VM %q", s.VM)
			}
			l.VMs[i].Node = s.TargetNode
		case RehomeParity:
			if s.Group < 0 || s.Group >= len(l.Groups) {
				return fmt.Errorf("cluster: rebalance re-homes parity of unknown group %d", s.Group)
			}
			g := &l.Groups[s.Group]
			if s.Parity < 0 || s.Parity >= len(g.ParityNodes) {
				return fmt.Errorf("cluster: parity slot %d out of range for group %d", s.Parity, s.Group)
			}
			g.ParityNodes[s.Parity] = s.TargetNode
		default:
			return fmt.Errorf("cluster: unknown rebalance step kind %d", s.Kind)
		}
	}
	return l.Validate()
}
