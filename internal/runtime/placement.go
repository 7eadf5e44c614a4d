package runtime

import (
	"fmt"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
)

// Rebalance, Evacuate and EvacuateKeepers relocate elements of a live
// cluster by the plan rule recovery follows (execute): a VM moves with its
// committed image, a parity block is rebuilt on its new home. A step that
// fails leaves its element where it was, and the error comes back after the
// completed steps are in the layout. Call them right after a committed
// Checkpoint, before any Step: the old host refuses to drop a VM with dirty
// pages.
//
// Rebalance restores strict orthogonality after degraded recoveries, once
// repaired nodes have rejoined (cluster.PlanRebalance).
func (c *Coordinator) Rebalance() (*cluster.Plan, error) {
	return c.relocate("rebalance", -1, c.layout.PlanRebalance)
}

// EvacuateKeepers drains every parity block off one alive node, the response
// to the telemetry plane flagging it as habitually slow: it keeps its VMs and
// stops being a fan-in point (cluster.PlanKeeperEvacuation). Layouts with no
// orthogonal target fail; an empty plan means it keeps no parity.
func (c *Coordinator) EvacuateKeepers(node int) (*cluster.Plan, error) {
	return c.relocate("evacuate", node, func(down ...int) (*cluster.Plan, error) {
		return c.layout.PlanKeeperEvacuation(node, down...)
	})
}

// Evacuate moves every VM and parity block off one alive node predicted to
// fail, the paper's "live migration away from failing nodes": nothing is lost
// and nobody rolls back. cluster.PlanEvacuation places them as recovery
// would, so a group's elements spread and its parity blocks never stack.
func (c *Coordinator) Evacuate(node int) (*cluster.Plan, error) {
	return c.relocate("evacuate-node", node, func(down ...int) (*cluster.Plan, error) {
		return c.layout.PlanEvacuation(node, down...)
	})
}

// relocate plans with planner against the down nodes and executes the plan in
// a root span and a phase both called name. A node ≥ 0 is the node evacuated:
// it must be alive, and an empty plan for it returns at once.
func (c *Coordinator) relocate(name string, node int, planner func(down ...int) (*cluster.Plan, error)) (plan *cluster.Plan, err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	t0 := time.Now()
	c.mu.Lock()
	tr, dead := c.tracer, c.dead[node]
	c.mu.Unlock()
	if dead {
		return nil, fmt.Errorf("runtime: cannot evacuate dead node %d", node)
	}
	root := tr.Start(obs.SpanContext{}, name, "coord")
	if node >= 0 {
		root.SetAttr("node", fmt.Sprint(node))
	}
	defer func() { root.FinishErr(err) }()
	plan, err = planner(c.downNodes()...)
	if err != nil || (node >= 0 && len(plan.Steps) == 0) {
		return plan, err
	}
	if err := c.execute(root.ContextOr(obs.SpanContext{}), tr, plan); err != nil {
		return nil, err
	}
	c.observePhase(name, time.Since(t0))
	return plan, nil
}
