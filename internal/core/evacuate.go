package core

import (
	"fmt"

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
// back: each VM pre-copies its memory to the target cluster.PlanEvacuation
// gives it — recovery's placement, so a group's elements spread and its
// parity blocks never stack — the committed image and protocol epoch travel
// with it, and parity is untouched because the VM's state is unchanged.
// Parity blocks homed on the node are re-homed by recovery's rebuild.
//
// An optional HashIndex enables the paper's page-hash dedup during the
// migrations (nil disables it).
func (c *Cluster) EvacuateNode(n int, index *migrate.HashIndex) (*EvacuationReport, error) {
	if c.down[n] {
		return nil, fmt.Errorf("core: node %d is already down", n)
	}
	plan, err := c.layout.PlanEvacuation(n, c.downNodes()...)
	if err != nil {
		return nil, err
	}
	report := &EvacuationReport{Node: n, Degraded: plan.Degraded}
	var rehomes []cluster.Step
	for _, s := range plan.Steps {
		if s.Kind != cluster.RestoreVM {
			rehomes = append(rehomes, s)
			continue
		}
		stats, err := c.moveVM(s.VM, index)
		if err != nil {
			return nil, err
		}
		report.Moves = append(report.Moves, EvacuationMove{
			VM: s.VM, TargetNode: s.TargetNode, Stats: stats, Degraded: s.Degraded,
		})
	}
	// The moved VMs are sources of the rebuilds on their new nodes.
	if err := c.layout.Apply(plan); err != nil {
		return nil, err
	}
	return report, c.rebuildSteps(&cluster.Plan{Down: plan.Down, Steps: rehomes})
}

// moveVM live-migrates one VM: iterative pre-copy, a stop-and-copy
// finalize and identity adoption (committed image, protocol epoch, dirty
// set). Its caller records the move in the layout. index may be nil.
func (c *Cluster) moveVM(name string, index *migrate.HashIndex) (migrate.Stats, error) {
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
