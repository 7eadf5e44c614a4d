package core

import (
	"fmt"
	"sort"

	"dvdc/internal/cluster"
	"dvdc/internal/migrate"
)

// EvacuationReport describes a completed proactive evacuation.
type EvacuationReport struct {
	Node     int
	Moves    []EvacuationMove
	Degraded bool // some move had to violate orthogonality
}

// EvacuationMove is one VM's live migration off the suspect node.
type EvacuationMove struct {
	VM         string
	TargetNode int
	Stats      migrate.Stats
	Degraded   bool
}

// EvacuateNode proactively live-migrates every VM off a node that is
// predicted to fail — the paper's "moving state: live migration away from
// failing nodes" benefit. Unlike FailNode, nothing is lost and nobody rolls
// back: each VM pre-copies its memory to a target chosen like recovery
// placement (least-loaded node holding no other element of the VM's group),
// the committed image and protocol epoch travel with it, and parity is
// untouched because the VM's state is unchanged. Parity blocks homed on the
// node are re-homed by recomputation, exactly as in recovery.
//
// An optional HashIndex enables the paper's page-hash dedup during the
// migrations (nil disables it).
func (c *Cluster) EvacuateNode(n int, index *migrate.HashIndex) (*EvacuationReport, error) {
	if n < 0 || n >= c.layout.Nodes {
		return nil, fmt.Errorf("core: node %d out of range [0,%d)", n, c.layout.Nodes)
	}
	if c.down[n] {
		return nil, fmt.Errorf("core: node %d is already down", n)
	}
	report := &EvacuationReport{Node: n}

	// Load per node for target choice, like the recovery planner.
	load := make([]int, c.layout.Nodes)
	for _, v := range c.layout.VMs {
		if v.Node != n && !c.down[v.Node] {
			load[v.Node]++
		}
	}
	groupOccupied := func(g cluster.Group, extra map[int]bool) map[int]bool {
		occ := map[int]bool{}
		for _, m := range g.Members {
			v, _ := c.layout.VM(m)
			if v.Node != n {
				occ[v.Node] = true
			}
		}
		for _, p := range g.ParityNodes {
			if p != n {
				occ[p] = true
			}
		}
		for e := range extra {
			occ[e] = true
		}
		return occ
	}
	planned := map[int]map[int]bool{} // group -> nodes taken by this evacuation
	pickTarget := func(g cluster.Group) (int, bool, error) {
		occ := groupOccupied(g, planned[g.Index])
		best, bestLoad, degraded := -1, int(^uint(0)>>1), false
		for t := 0; t < c.layout.Nodes; t++ {
			if t == n || c.down[t] || occ[t] {
				continue
			}
			if load[t] < bestLoad {
				best, bestLoad = t, load[t]
			}
		}
		if best == -1 {
			degraded = true
			for t := 0; t < c.layout.Nodes; t++ {
				if t == n || c.down[t] {
					continue
				}
				if load[t] < bestLoad {
					best, bestLoad = t, load[t]
				}
			}
		}
		if best == -1 {
			return 0, false, fmt.Errorf("core: no surviving target for group %d", g.Index)
		}
		if planned[g.Index] == nil {
			planned[g.Index] = map[int]bool{}
		}
		planned[g.Index][best] = true
		return best, degraded, nil
	}

	// Live-migrate every hosted VM, in stable order.
	vms := c.layout.VMsOnNode(n)
	sort.Strings(vms)
	for _, name := range vms {
		v, _ := c.layout.VM(name)
		g := c.layout.Groups[v.Group]
		target, degraded, err := pickTarget(g)
		if err != nil {
			return nil, err
		}
		stats, err := c.moveVM(name, target, index)
		if err != nil {
			return nil, err
		}
		report.Moves = append(report.Moves, EvacuationMove{
			VM: name, TargetNode: target, Stats: stats, Degraded: degraded,
		})
		report.Degraded = report.Degraded || degraded
		load[target]++
	}

	// Re-home parity blocks from the suspect node by recomputation.
	for _, g := range c.layout.Groups {
		for i, p := range g.ParityNodes {
			if p != n {
				continue
			}
			target, degraded, err := pickTarget(g)
			if err != nil {
				return nil, err
			}
			initial := make(map[string][]byte, len(g.Members))
			epochs := make(map[string]uint64, len(g.Members))
			for _, m := range g.Members {
				initial[m] = c.members[m].CommittedImage()
				epochs[m] = c.members[m].Epoch()
			}
			nk, err := NewMKeeper(g.Index, i, c.layout.Tolerance, initial)
			if err != nil {
				return nil, err
			}
			if err := nk.SetEpochs(epochs); err != nil {
				return nil, err
			}
			c.keepers[g.Index][i] = nk
			c.layout.Groups[g.Index].ParityNodes[i] = target
			report.Degraded = report.Degraded || degraded
			c.stats.ParityRebuilds++
		}
	}
	if report.Degraded {
		return report, c.layout.ValidateDegraded()
	}
	return report, c.layout.Validate()
}

// moveVM live-migrates one VM to a target node: iterative pre-copy, a
// stop-and-copy finalize, identity adoption (committed image, protocol
// epoch, dirty set), and a placement update. index may be nil.
func (c *Cluster) moveVM(name string, target int, index *migrate.HashIndex) (migrate.Stats, error) {
	mem, ok := c.members[name]
	if !ok {
		return migrate.Stats{}, fmt.Errorf("core: unknown VM %q", name)
	}
	// The guest is paused for the in-process move, so its
	// dirty-since-last-commit set is fixed now; migration rounds clear the
	// source's dirty bits, so remember it for the adopted member.
	dirtyBefore := mem.Machine().DirtyPages()
	mig, err := migrate.NewMigration(mem.Machine(), index)
	if err != nil {
		return migrate.Stats{}, err
	}
	// Iterative pre-copy until the dirty residue is small, then
	// stop-and-copy. (In-process the guest is paused during the loop; the
	// round structure still exercises the real transfer path.)
	for round := 0; round < 4; round++ {
		moved, err := mig.CopyRound()
		if err != nil {
			return migrate.Stats{}, err
		}
		if moved <= mem.Machine().NumPages()/50 {
			break
		}
	}
	stats, err := mig.Finalize()
	if err != nil {
		return migrate.Stats{}, err
	}
	// The member's identity, committed image, and epoch carry over; only
	// the machine object (its "physical host") changes.
	fresh, err := NewMember(mig.Dst())
	if err != nil {
		return migrate.Stats{}, err
	}
	if err := fresh.adopt(mem, dirtyBefore); err != nil {
		return migrate.Stats{}, err
	}
	c.members[name] = fresh
	for i := range c.layout.VMs {
		if c.layout.VMs[i].Name == name {
			c.layout.VMs[i].Node = target
		}
	}
	return stats, nil
}

// adopt transfers another member's protocol identity (committed image and
// epoch) onto this member, whose machine must already hold the same live
// state (a completed migration guarantees it), so only the old member's
// pre-images are copied: every other committed page is the live page both
// machines hold. dirty lists the pages that were dirty on the source since
// its last commit; they are re-marked so the next capture includes them.
func (mem *Member) adopt(old *Member, dirty []int) error {
	if mem.machine.ImageBytes() != old.machine.ImageBytes() {
		return fmt.Errorf("core: adopt geometry mismatch")
	}
	for i, p := range old.pre {
		if p != nil {
			mem.keep(i, p)
		}
	}
	mem.epoch = old.epoch
	for _, i := range dirty {
		mem.machine.MarkDirty(i)
	}
	return nil
}
