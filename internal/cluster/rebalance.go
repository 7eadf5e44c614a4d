package cluster

import (
	"fmt"
	"slices"
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
// "recompute the group's parity slot Parity on TargetNode". Every target is
// the placement rule's (placer.pick) and must be strict: a group with no
// orthogonal target makes the plan fail. An empty plan means the layout is
// already orthogonal.
func (l *Layout) PlanRebalance(down ...int) (*Plan, error) {
	p, err := l.newPlacer(down)
	if err != nil {
		return nil, err
	}
	for gi, g := range p.l.Groups {
		for {
			// The lowest node carrying more than one element of this group,
			// so one layout always yields one plan.
			count := make([]int, l.Nodes)
			for _, m := range g.Members {
				count[p.l.VMs[p.l.vmIndex[m]].Node]++
			}
			for _, n := range g.ParityNodes {
				count[n]++
			}
			clash := slices.IndexFunc(count, func(c int) bool { return c > 1 })
			if clash < 0 {
				break
			}
			// Move a member VM off the clashing node; failing that, a parity
			// block.
			var s Step
			if i := slices.IndexFunc(g.Members, func(m string) bool { return p.l.VMs[p.l.vmIndex[m]].Node == clash }); i >= 0 {
				s, err = p.move(RestoreVM, g.Members[i], gi, 0)
			} else {
				s, err = p.move(RehomeParity, "", gi, slices.Index(g.ParityNodes, clash))
			}
			if err != nil || s.Degraded {
				return nil, fmt.Errorf("cluster: no orthogonal target for group %d", gi)
			}
		}
	}
	return p.plan, nil
}

// PlanKeeperEvacuation computes the parity moves that drain every parity
// block off one node — the placement response to the telemetry plane flagging
// that node as habitually slow: parity keepers absorb every member's delta
// stream, so a slow keeper stretches each round's prepare window by the whole
// chunk pipeline, while a slow member only stretches its own shipments.
//
// The plan reuses the rebalance Step vocabulary (RehomeParity naming the
// parity slot it moves). Every target is the placement rule's (placer.pick)
// with the avoided node out of service, and must be strict: a target never
// carries another element of the same group, is never the avoided node and
// never down. Unlike the other planners, each block placed counts toward its
// target's load, so ties break toward the least-loaded node by VMs plus
// already-planned parity and the drained blocks spread. Groups with no legal
// target make the plan fail — in the paper's minimal 4-node layout every
// other node already carries a member of the group, so evacuation is
// structurally impossible and callers must treat that as "cannot rebalance",
// not retry. An empty plan means the node keeps no parity.
func (l *Layout) PlanKeeperEvacuation(avoid int, down ...int) (*Plan, error) {
	if avoid < 0 || avoid >= l.Nodes {
		return nil, fmt.Errorf("cluster: evacuate node %d out of range [0,%d)", avoid, l.Nodes)
	}
	p, err := l.newPlacer(slices.DeleteFunc(slices.Clone(down), func(n int) bool { return n == avoid }))
	if err != nil {
		return nil, err
	}
	p.down[avoid] = true
	for gi, g := range p.l.Groups {
		for i, n := range g.ParityNodes {
			if n != avoid {
				continue
			}
			s, err := p.move(RehomeParity, "", gi, i)
			if err != nil || s.Degraded {
				return nil, fmt.Errorf("cluster: no orthogonal target to evacuate parity %d of group %d off node %d", i, gi, avoid)
			}
			p.load[s.TargetNode]++
		}
	}
	return p.plan, nil
}
