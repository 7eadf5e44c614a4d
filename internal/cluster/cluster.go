// Package cluster builds and validates the virtualized-cluster layouts the
// paper proposes: which VM lives on which physical node, how VMs are
// partitioned into RAID groups, and which node holds each group's parity.
//
// The paper's three architectures are all constructible:
//
//   - FirstShot (Fig. 1): one VM per compute node, one dedicated parity
//     node, a single RAID group spanning every VM.
//   - Dedicated (Fig. 3): several VMs per node arranged in orthogonal RAID
//     groups, with all parity concentrated on one dedicated checkpoint node.
//   - Distributed (Fig. 4, DVDC proper): orthogonal groups with parity
//     responsibility rotated across the compute nodes RAID-5 style, so every
//     node hosts working VMs and parity, and no dedicated hardware idles.
//
// Orthogonality is the load-bearing invariant: a RAID group may place at
// most one element (member VM or its parity block) on any physical node, so
// a node failure costs each group at most one element — recoverable with
// single parity. Validate enforces it; the constructors produce it.
package cluster

import (
	"fmt"
	"slices"
	"sort"
)

// Architecture names the layout families from the paper's figures.
type Architecture int

// Architectures.
const (
	FirstShot Architecture = iota
	Dedicated
	Distributed
)

// String returns the architecture name.
func (a Architecture) String() string {
	switch a {
	case FirstShot:
		return "first-shot"
	case Dedicated:
		return "dedicated-parity"
	case Distributed:
		return "distributed (DVDC)"
	default:
		return fmt.Sprintf("Architecture(%d)", int(a))
	}
}

// VMPlacement records where one VM lives and which group protects it.
type VMPlacement struct {
	Name  string
	Node  int
	Group int
}

// Group is one RAID group: member VMs plus the node(s) holding its parity.
type Group struct {
	Index       int
	Members     []string
	ParityNodes []int // one node per parity block; len = fault tolerance
}

// Layout is a complete cluster configuration.
type Layout struct {
	Arch      Architecture
	Nodes     int // total physical nodes, compute and dedicated alike
	Tolerance int // node failures each group survives (parity block count)
	VMs       []VMPlacement
	Groups    []Group

	vmIndex map[string]int // name -> index in VMs
}

func (l *Layout) buildIndex() {
	l.vmIndex = make(map[string]int, len(l.VMs))
	for i, v := range l.VMs {
		l.vmIndex[v.Name] = i
	}
}

// Clone returns a deep copy of the layout, so recovery experiments can
// mutate placements without touching the original.
func (l *Layout) Clone() *Layout {
	cp := &Layout{Arch: l.Arch, Nodes: l.Nodes, Tolerance: l.Tolerance}
	cp.VMs = append([]VMPlacement(nil), l.VMs...)
	cp.Groups = make([]Group, len(l.Groups))
	for i, g := range l.Groups {
		cp.Groups[i] = Group{
			Index:       g.Index,
			Members:     append([]string(nil), g.Members...),
			ParityNodes: append([]int(nil), g.ParityNodes...),
		}
	}
	cp.buildIndex()
	return cp
}

// VM returns the placement record for a VM name.
func (l *Layout) VM(name string) (VMPlacement, bool) {
	i, ok := l.vmIndex[name]
	if !ok {
		return VMPlacement{}, false
	}
	return l.VMs[i], true
}

// VMsOnNode returns the names of VMs hosted by node n, in layout order.
func (l *Layout) VMsOnNode(n int) []string {
	var out []string
	for _, v := range l.VMs {
		if v.Node == n {
			out = append(out, v.Name)
		}
	}
	return out
}

// ParityGroupsOnNode returns the indices of groups whose parity node n holds.
func (l *Layout) ParityGroupsOnNode(n int) []int {
	var out []int
	for _, g := range l.Groups {
		for _, p := range g.ParityNodes {
			if p == n {
				out = append(out, g.Index)
				break
			}
		}
	}
	return out
}

// ComputeNodes returns the indices of nodes that host at least one VM.
func (l *Layout) ComputeNodes() []int {
	seen := map[int]bool{}
	for _, v := range l.VMs {
		seen[v.Node] = true
	}
	out := make([]int, 0, len(seen))
	for n := range seen {
		out = append(out, n)
	}
	sort.Ints(out)
	return out
}

// Validate checks structural sanity and the orthogonality invariant: within
// one group, member VMs and parity blocks all occupy distinct nodes.
func (l *Layout) Validate() error { return l.validate(true) }

// ValidateDegraded checks structural sanity but permits a member beside
// another element of its group, the state a layout is in after a degraded
// recovery. Two parity blocks of one group on one node it refuses: a node
// keeps one block per group.
func (l *Layout) ValidateDegraded() error { return l.validate(false) }

func (l *Layout) validate(strict bool) error {
	if l.Nodes < 2 {
		return fmt.Errorf("cluster: need at least 2 nodes, got %d", l.Nodes)
	}
	if l.Tolerance < 1 {
		return fmt.Errorf("cluster: tolerance must be >= 1, got %d", l.Tolerance)
	}
	if len(l.VMs) == 0 {
		return fmt.Errorf("cluster: layout has no VMs")
	}
	names := map[string]int{}
	for i, v := range l.VMs {
		if v.Name == "" {
			return fmt.Errorf("cluster: VM %d has empty name", i)
		}
		if prev, dup := names[v.Name]; dup {
			return fmt.Errorf("cluster: duplicate VM name %q (indices %d, %d)", v.Name, prev, i)
		}
		names[v.Name] = i
		if v.Node < 0 || v.Node >= l.Nodes {
			return fmt.Errorf("cluster: VM %q on node %d, out of range [0,%d)", v.Name, v.Node, l.Nodes)
		}
		if v.Group < 0 || v.Group >= len(l.Groups) {
			return fmt.Errorf("cluster: VM %q in group %d, out of range [0,%d)", v.Name, v.Group, len(l.Groups))
		}
	}
	grouped := map[string]bool{}
	for gi, g := range l.Groups {
		if g.Index != gi {
			return fmt.Errorf("cluster: group %d has index %d", gi, g.Index)
		}
		if len(g.Members) == 0 {
			return fmt.Errorf("cluster: group %d is empty", gi)
		}
		if len(g.ParityNodes) != l.Tolerance {
			return fmt.Errorf("cluster: group %d has %d parity nodes, tolerance is %d",
				gi, len(g.ParityNodes), l.Tolerance)
		}
		used := map[int]string{} // node -> what occupies it within this group
		for _, name := range g.Members {
			vi, ok := names[name]
			if !ok {
				return fmt.Errorf("cluster: group %d member %q is not a VM", gi, name)
			}
			v := l.VMs[vi]
			if v.Group != gi {
				return fmt.Errorf("cluster: VM %q in group %d but listed as member of %d", name, v.Group, gi)
			}
			if grouped[name] {
				return fmt.Errorf("cluster: VM %q is a member of multiple groups", name)
			}
			grouped[name] = true
			if prev, clash := used[v.Node]; clash && strict {
				return fmt.Errorf("cluster: group %d not orthogonal: %q and %q share node %d",
					gi, prev, name, v.Node)
			}
			used[v.Node] = name
		}
		for i, p := range g.ParityNodes {
			if p < 0 || p >= l.Nodes {
				return fmt.Errorf("cluster: group %d parity node %d out of range", gi, p)
			}
			if slices.Contains(g.ParityNodes[:i], p) {
				return fmt.Errorf("cluster: group %d keeps two parity blocks on node %d", gi, p)
			}
			if prev, clash := used[p]; clash && strict {
				return fmt.Errorf("cluster: group %d not orthogonal: parity and %q share node %d",
					gi, prev, p)
			}
			used[p] = fmt.Sprintf("parity[%d]", gi)
		}
	}
	for name := range names {
		if !grouped[name] {
			return fmt.Errorf("cluster: VM %q belongs to no group's member list", name)
		}
	}
	return nil
}

// LostElements counts, per group, how many elements (member VMs + parity
// blocks) live on the given failed nodes.
func (l *Layout) LostElements(failedNodes ...int) map[int]int {
	failed := map[int]bool{}
	for _, n := range failedNodes {
		failed[n] = true
	}
	lost := map[int]int{}
	for _, v := range l.VMs {
		if failed[v.Node] {
			lost[v.Group]++
		}
	}
	for _, g := range l.Groups {
		for _, p := range g.ParityNodes {
			if failed[p] {
				lost[g.Index]++
			}
		}
	}
	return lost
}

// Survives reports whether every group can recover from the simultaneous
// failure of the given nodes: no group may lose more elements than the
// layout's tolerance.
func (l *Layout) Survives(failedNodes ...int) bool {
	for _, n := range l.LostElements(failedNodes...) {
		if n > l.Tolerance {
			return false
		}
	}
	return true
}
