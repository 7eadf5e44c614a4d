package core

import (
	"dvdc/internal/cluster"
	"dvdc/internal/migrate"
)

// Rebalance restores strict orthogonality after degraded recoveries, once
// repaired nodes have rejoined and made room: co-located VMs live-migrate to
// free nodes and co-located parity blocks re-home (in-process the parity
// content is location-independent, so a parity move is pure bookkeeping plus
// the transfer a real deployment would pay). index optionally enables
// page-hash dedup for the migrations. The resulting layout passes strict
// validation; an empty plan means nothing needed to move.
func (c *Cluster) Rebalance(index *migrate.HashIndex) (*cluster.Plan, error) {
	plan, err := c.layout.PlanRebalance(c.downNodes()...)
	if err != nil {
		return nil, err
	}
	for _, s := range plan.Steps {
		if s.Kind != cluster.RestoreVM {
			continue
		}
		if _, err := c.moveVM(s.VM, index); err != nil {
			return nil, err
		}
	}
	if err := c.layout.Apply(plan); err != nil {
		return nil, err
	}
	for _, s := range plan.Steps {
		if s.Kind == cluster.RehomeParity {
			c.stats.ParityRebuilds++
		}
	}
	return plan, nil
}
