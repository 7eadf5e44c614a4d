package cluster

import (
	"fmt"
	"sort"
)

// StepKind distinguishes what a recovery step restores.
type StepKind int

// Recovery step kinds.
const (
	RestoreVM    StepKind = iota // rebuild a lost VM's checkpoint and respawn it
	RehomeParity                 // recompute a lost parity block on a new node
)

// String returns the step kind name.
func (k StepKind) String() string {
	if k == RestoreVM {
		return "restore-vm"
	}
	return "rehome-parity"
}

// Step is one unit of recovery work: a VM (RestoreVM) or one parity block
// (RehomeParity) of a group and the node it goes to. A RehomeParity step names
// its block by slot, the index into the group's ParityNodes it moves, so the
// plan alone says which block each step rebuilds and where it lands; which
// shards rebuild it is core's rule, not the plan's.
type Step struct {
	Kind       StepKind
	VM         string // for RestoreVM: the VM's name
	Group      int
	Parity     int  // for RehomeParity: the parity slot moved
	TargetNode int  // where the element will live
	Degraded   bool // the target shares a node with another group element
}

// Plan is the ordered recovery work after one or more node failures.
type Plan struct {
	Down  []int
	Steps []Step
	// Degraded is set when at least one step had to violate orthogonality
	// because every surviving node already holds an element of the affected
	// group (unavoidable when groupSize+tolerance equals the node count, as
	// in the paper's 4-node/12-VM configuration). Data is fully restored,
	// but some groups tolerate fewer subsequent failures until the failed
	// node is repaired and VMs are re-balanced.
	Degraded bool
}

// PlanRecovery computes how to restore full protection after the given
// nodes fail simultaneously. For every lost VM it selects a surviving target
// node that holds no other element of the VM's group (preserving
// orthogonality); every lost parity block is likewise re-homed, one step per
// slot in slot order. Targets are chosen least-loaded-first, counting moves
// already planned.
//
// It fails if any group lost more elements than the layout tolerates or if
// no surviving node can host a lost element.
func (l *Layout) PlanRecovery(down ...int) (*Plan, error) {
	for g, lost := range l.LostElements(down...) {
		if lost > l.Tolerance {
			return nil, fmt.Errorf("cluster: group %d lost %d elements, tolerance %d", g, lost, l.Tolerance)
		}
	}
	return l.place(down)
}

// PlanEvacuation computes how to move every element off node n, which is
// predicted to fail, while the nodes in down stay out of service: its VMs
// live-migrate and its parity blocks are recomputed elsewhere. The steps and
// targets are PlanRecovery's for n and down failing together, without the
// loss-versus-tolerance check, since an evacuation loses nothing — so a node
// holding two elements of one group after a degraded recovery can still be
// evacuated.
func (l *Layout) PlanEvacuation(n int, down ...int) (*Plan, error) {
	return l.place(append([]int{n}, down...))
}

// place is the placement PlanRecovery and PlanEvacuation share: a target for
// every VM and parity block on the down nodes.
func (l *Layout) place(down []int) (*Plan, error) {
	downSet := map[int]bool{}
	for _, n := range down {
		if n < 0 || n >= l.Nodes {
			return nil, fmt.Errorf("cluster: down node %d out of range [0,%d)", n, l.Nodes)
		}
		downSet[n] = true
	}
	if len(downSet) == 0 {
		return &Plan{}, nil
	}

	// Current VM load per node, updated as we plan moves.
	load := make([]int, l.Nodes)
	for _, v := range l.VMs {
		if !downSet[v.Node] {
			load[v.Node]++
		}
	}

	groupNodes := func(g Group) map[int]bool {
		occ := map[int]bool{}
		for _, m := range g.Members {
			v, _ := l.VM(m)
			if !downSet[v.Node] {
				occ[v.Node] = true
			}
		}
		for _, p := range g.ParityNodes {
			if !downSet[p] {
				occ[p] = true
			}
		}
		return occ
	}

	plan := &Plan{}
	for n := range downSet {
		plan.Down = append(plan.Down, n)
	}
	sort.Ints(plan.Down)

	// Plan moves group by group so newly planned placements are visible to
	// later choices within the same group.
	planned := map[int]map[int]bool{} // group -> extra occupied nodes
	occupied := func(g Group) map[int]bool {
		occ := groupNodes(g)
		for n := range planned[g.Index] {
			occ[n] = true
		}
		return occ
	}
	// parityOn lists, per group, the surviving nodes that hold (or are planned
	// to hold) one of its parity blocks.
	parityOn := map[int]map[int]bool{}
	holdsParity := func(g Group) map[int]bool {
		held, ok := parityOn[g.Index]
		if !ok {
			held = map[int]bool{}
			for _, p := range g.ParityNodes {
				if !downSet[p] {
					held[p] = true
				}
			}
			parityOn[g.Index] = held
		}
		return held
	}
	// pickTarget prefers a surviving node free of this group's elements;
	// when none exists (the group already spans every surviving node) it
	// falls back to the least-loaded surviving node and reports the
	// placement as degraded. A degraded parity placement co-locates with a
	// member, never with another parity block of the group: a node keeps one
	// parity block per group, so two on one node would lose one of them.
	pickTarget := func(g Group, forParity bool) (node int, degraded bool, err error) {
		occ := occupied(g)
		best, bestLoad := -1, int(^uint(0)>>1)
		for n := 0; n < l.Nodes; n++ {
			if downSet[n] || occ[n] {
				continue
			}
			if load[n] < bestLoad {
				best, bestLoad = n, load[n]
			}
		}
		if best == -1 {
			degraded = true
			for n := 0; n < l.Nodes; n++ {
				if downSet[n] || (forParity && holdsParity(g)[n]) {
					continue
				}
				if load[n] < bestLoad {
					best, bestLoad = n, load[n]
				}
			}
		}
		if best == -1 {
			return 0, false, fmt.Errorf("cluster: no surviving node can host group %d", g.Index)
		}
		if planned[g.Index] == nil {
			planned[g.Index] = map[int]bool{}
		}
		planned[g.Index][best] = true
		if forParity {
			holdsParity(g)[best] = true
		}
		return best, degraded, nil
	}

	// Lost VMs first (they block job resumption), then lost parity.
	for _, v := range l.VMs {
		if !downSet[v.Node] {
			continue
		}
		g := l.Groups[v.Group]
		target, degraded, err := pickTarget(g, false)
		if err != nil {
			return nil, err
		}
		load[target]++
		plan.Degraded = plan.Degraded || degraded
		plan.Steps = append(plan.Steps, Step{
			Kind:       RestoreVM,
			VM:         v.Name,
			Group:      v.Group,
			TargetNode: target,
			Degraded:   degraded,
		})
	}
	for _, g := range l.Groups {
		for i, p := range g.ParityNodes {
			if !downSet[p] {
				continue
			}
			target, degraded, err := pickTarget(g, true)
			if err != nil {
				return nil, err
			}
			plan.Degraded = plan.Degraded || degraded
			plan.Steps = append(plan.Steps, Step{
				Kind:       RehomeParity,
				Group:      g.Index,
				Parity:     i,
				TargetNode: target,
				Degraded:   degraded,
			})
		}
	}
	return plan, nil
}

// ApplyRecovery mutates the layout so it reflects a completed plan: lost VMs
// move to their target nodes, and each re-homed parity slot moves to its
// step's target. A step whose slot is out of range or not on a down node is
// refused. The resulting layout must validate, and callers should check
// Survives again before trusting further failures to be tolerable.
func (l *Layout) ApplyRecovery(p *Plan) error {
	downSet := map[int]bool{}
	for _, n := range p.Down {
		downSet[n] = true
	}
	for _, s := range p.Steps {
		switch s.Kind {
		case RestoreVM:
			i, ok := l.vmIndex[s.VM]
			if !ok {
				return fmt.Errorf("cluster: plan restores unknown VM %q", s.VM)
			}
			l.VMs[i].Node = s.TargetNode
		case RehomeParity:
			if s.Group < 0 || s.Group >= len(l.Groups) {
				return fmt.Errorf("cluster: plan re-homes parity of unknown group %d", s.Group)
			}
			g := &l.Groups[s.Group]
			if s.Parity < 0 || s.Parity >= len(g.ParityNodes) {
				return fmt.Errorf("cluster: parity slot %d out of range for group %d", s.Parity, s.Group)
			}
			if !downSet[g.ParityNodes[s.Parity]] {
				return fmt.Errorf("cluster: parity[%d] of group %d is not on a down node", s.Parity, s.Group)
			}
			g.ParityNodes[s.Parity] = s.TargetNode
		default:
			return fmt.Errorf("cluster: unknown step kind %d", s.Kind)
		}
	}
	if p.Degraded {
		return l.ValidateDegraded()
	}
	return l.Validate()
}
