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

// Step is one unit of placement work: a VM (RestoreVM) or one parity block
// (RehomeParity) of a group, the node it is on and the node it goes to. A
// RehomeParity step names its block by slot, the index into the group's
// ParityNodes it moves, so the plan alone says which block each step rebuilds
// and where it lands; which shards rebuild it is core's rule, not the plan's.
type Step struct {
	Kind       StepKind
	VM         string // for RestoreVM: the VM's name
	Group      int
	Parity     int  // for RehomeParity: the parity slot moved
	From       int  // where the element lives when the plan is made
	TargetNode int  // where the element will live
	Degraded   bool // the target shares a node with another group element
}

// Plan is the ordered placement work after one or more node failures, or
// for a rebalance or an evacuation.
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

// VMs lists, in step order, the VMs the plan places: the ones a recovery
// restores, or a relocation moves.
func (p *Plan) VMs() []string {
	var out []string
	for _, s := range p.Steps {
		if s.Kind == RestoreVM {
			out = append(out, s.VM)
		}
	}
	return out
}

// PlanRecovery computes how to restore full protection after the given
// nodes fail simultaneously: every lost VM, then every lost parity block, one
// step per slot in slot order, gets a target by the placement rule (see
// placer.pick), which keeps each group orthogonal where a surviving node
// allows it and degrades the plan where none does.
//
// It fails if any group lost more elements than the layout tolerates or if
// no surviving node can host a lost element.
func (l *Layout) PlanRecovery(down ...int) (*Plan, error) {
	for g, lost := range l.LostElements(down...) {
		if lost > l.Tolerance {
			return nil, fmt.Errorf("cluster: group %d lost %d elements, tolerance %d", g, lost, l.Tolerance)
		}
	}
	return l.planOff(down)
}

// PlanEvacuation computes how to move every element off node n, which is
// predicted to fail, while the nodes in down stay out of service: its VMs
// live-migrate and its parity blocks are recomputed elsewhere. The steps and
// targets are PlanRecovery's for n and down failing together, without the
// loss-versus-tolerance check, since an evacuation loses nothing — so a node
// holding two elements of one group after a degraded recovery can still be
// evacuated.
func (l *Layout) PlanEvacuation(n int, down ...int) (*Plan, error) {
	return l.planOff(append([]int{n}, down...))
}

// planOff plans a target for every VM and parity block on the down nodes,
// the lost VMs first (they block job resumption).
func (l *Layout) planOff(down []int) (*Plan, error) {
	p, err := l.newPlacer(down)
	if err != nil {
		return nil, err
	}
	for _, v := range l.VMs {
		if p.down[v.Node] {
			if _, err := p.move(RestoreVM, v.Name, v.Group, 0); err != nil {
				return nil, err
			}
		}
	}
	for gi, g := range l.Groups {
		for i, n := range g.ParityNodes {
			if p.down[n] {
				if _, err := p.move(RehomeParity, "", gi, i); err != nil {
					return nil, err
				}
			}
		}
	}
	return p.plan, nil
}

// placer builds one plan. It works on a copy of the layout in which it moves
// each element as it plans the step, so every choice sees the moves planned
// before it.
type placer struct {
	l    *Layout // the layout as the plan so far leaves it
	down []bool  // never a target
	load []int   // VMs per node, planned moves included
	plan *Plan
}

// newPlacer starts a plan against l with the down nodes out of service.
func (l *Layout) newPlacer(down []int) (*placer, error) {
	p := &placer{l: l.Clone(), down: make([]bool, l.Nodes), load: make([]int, l.Nodes), plan: &Plan{}}
	for _, n := range down {
		if n < 0 || n >= l.Nodes {
			return nil, fmt.Errorf("cluster: down node %d out of range [0,%d)", n, l.Nodes)
		}
		if !p.down[n] {
			p.down[n] = true
			p.plan.Down = append(p.plan.Down, n)
		}
	}
	sort.Ints(p.plan.Down)
	for _, v := range l.VMs {
		p.load[v.Node]++
	}
	return p, nil
}

// pick is the placement rule, the one place a target node is chosen. A
// strict target is up and holds no element of group g; the least loaded
// wins, ties to the lowest index. With none, pick returns the least-loaded
// node that is up — for a parity block, one keeping no parity block of g,
// since a node keeps one block per group — and degraded is set.
func (p *placer) pick(g int, parity bool) (node int, degraded bool, err error) {
	holds, keeps := make([]bool, p.l.Nodes), make([]bool, p.l.Nodes)
	for _, m := range p.l.Groups[g].Members {
		holds[p.l.VMs[p.l.vmIndex[m]].Node] = true
	}
	for _, n := range p.l.Groups[g].ParityNodes {
		holds[n], keeps[n] = true, parity
	}
	least := func(skip []bool) int {
		best := -1
		for n, load := range p.load {
			if !p.down[n] && !skip[n] && (best < 0 || load < p.load[best]) {
				best = n
			}
		}
		return best
	}
	if n := least(holds); n >= 0 {
		return n, false, nil
	}
	if n := least(keeps); n >= 0 {
		return n, true, nil
	}
	return 0, false, fmt.Errorf("cluster: no surviving node can host group %d", g)
}

// move plans one step — VM vm, or parity slot slot of group g — to the node
// pick chooses, and moves the element in the placer's copy. A VM move takes
// one from its source's load and adds one to its target's.
func (p *placer) move(kind StepKind, vm string, g, slot int) (Step, error) {
	s := Step{Kind: kind, VM: vm, Group: g, Parity: slot}
	node, degraded, err := p.pick(g, kind == RehomeParity)
	if err != nil {
		return s, err
	}
	at, _ := p.l.home(s) // the planners name only elements of the layout
	s.From, s.TargetNode, s.Degraded = *at, node, degraded
	*at = node
	if kind == RestoreVM {
		p.load[s.From]--
		p.load[node]++
	}
	p.plan.Steps = append(p.plan.Steps, s)
	p.plan.Degraded = p.plan.Degraded || degraded
	return s, nil
}

// home returns the field of l that records where step s's element lives.
func (l *Layout) home(s Step) (*int, error) {
	switch s.Kind {
	case RestoreVM:
		i, ok := l.vmIndex[s.VM]
		if !ok {
			return nil, fmt.Errorf("cluster: plan moves unknown VM %q", s.VM)
		}
		return &l.VMs[i].Node, nil
	case RehomeParity:
		if s.Group < 0 || s.Group >= len(l.Groups) {
			return nil, fmt.Errorf("cluster: plan re-homes parity of unknown group %d", s.Group)
		}
		slots := l.Groups[s.Group].ParityNodes
		if s.Parity < 0 || s.Parity >= len(slots) {
			return nil, fmt.Errorf("cluster: parity slot %d out of range for group %d", s.Parity, s.Group)
		}
		return &slots[s.Parity], nil
	}
	return nil, fmt.Errorf("cluster: unknown step kind %d", s.Kind)
}

// Apply records the completed steps of a plan — a recovery's, an
// evacuation's, a rebalance's or a keeper evacuation's, or the part of one
// that completed — in the layout: each step's VM or parity slot moves from
// From to TargetNode. A step whose element is unknown, out of range or not on
// From is refused. The layout is then validated, strictly unless the plan is
// degraded; a plan of only the steps that completed is recorded even when
// the placement it leaves fails that check, and the error says so.
func (l *Layout) Apply(p *Plan) error {
	for _, s := range p.Steps {
		at, err := l.home(s)
		if err != nil {
			return err
		}
		if *at != s.From {
			return fmt.Errorf("cluster: %s step of group %d names node %d, but its element is on node %d", s.Kind, s.Group, s.From, *at)
		}
		*at = s.TargetNode
	}
	if p.Degraded {
		return l.ValidateDegraded()
	}
	return l.Validate()
}
