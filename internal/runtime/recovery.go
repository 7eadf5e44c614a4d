package runtime

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"dvdc/internal/cluster"
	"dvdc/internal/obs"
	"dvdc/internal/wire"
)

// RecoverNodes handles the simultaneous death of up to `tolerance` nodes,
// which must be unreachable already (or be treated so): it plans recovery,
// rolls every surviving VM back to the committed epoch and rebuilds each
// damaged group in one pass (execute) — the decoder pulls k surviving shards
// node-to-node once and hands each lost element to its target; no image byte
// crosses the coordinator. Nodes the commit phase declared dead
// (PartialCommitError) must be passed here; a failed recovery may be rerun.
func (c *Coordinator) RecoverNodes(failed ...int) (*cluster.Plan, error) {
	return c.RecoverNodesIn(obs.SpanContext{}, failed...)
}

// RecoverNodesIn is RecoverNodes with a parent span context, so a recovery
// driven by the service reconciler nests under its reconcile span. A zero
// context roots a fresh trace.
func (c *Coordinator) RecoverNodesIn(parent obs.SpanContext, failed ...int) (plan *cluster.Plan, err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	if len(failed) == 0 {
		return &cluster.Plan{}, nil
	}
	t0 := time.Now()
	tr, root := c.startRoot(parent, "recovery")
	root.SetAttr("failed", fmt.Sprintf("%v", failed))
	defer func() { root.FinishErr(err) }()
	seen := map[int]bool{}
	c.mu.Lock()
	for _, f := range failed {
		if seen[f] {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: node %d named twice", f)
		}
		seen[f] = true
		if c.dead[f] && !c.pending[f] {
			c.mu.Unlock()
			return nil, fmt.Errorf("runtime: node %d already recovered", f)
		}
	}
	c.mu.Unlock()
	// Plan against every node that is currently unavailable, not just the
	// new casualties, so targets are never chosen among the already-dead.
	plan, err = c.layout.PlanRecovery(c.downNodes(failed...)...)
	if err != nil {
		return nil, err
	}
	// The failed nodes stay pending until a recovery of them succeeds, so a
	// recovery that fails partway can be run again over the same nodes.
	for _, f := range failed {
		c.markDead(f)
	}

	// Roll every surviving node back to the committed epoch: guests resume from
	// the cut the restored VMs are rebuilt at (reconstruction reads committed
	// images, never live memory).
	rollback := tr.Child(root.Context(), "rollback", "coord")
	rbErr := c.fanout(rollback.ContextOr(obs.SpanContext{}), "rollback", c.aliveNodes(),
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgRollback} },
		nil)
	rollback.FinishErr(rbErr)
	if rbErr != nil {
		return nil, rbErr
	}
	if err := c.execute(root.ContextOr(obs.SpanContext{}), tr, plan); err != nil {
		return nil, err
	}
	c.observePhase("recovery", time.Since(t0))
	c.mu.Lock()
	for _, f := range failed {
		delete(c.pending, f)
	}
	c.lastPlan = plan
	c.mu.Unlock()
	return plan, nil
}

// DeclareDead takes nodes out of service at once, whether or not their
// daemons still answer — an operator's or a failure detector's verdict. Each
// owes a recovery, as a commit casualty does (markDead), which the next
// restore naming it runs; until then no round starts. A node outside the
// layout is refused, and then none is declared: a bad index among the dead
// would fail every later plan.
func (c *Coordinator) DeclareDead(nodes ...int) error {
	for _, n := range nodes {
		if n < 0 || n >= c.layout.Nodes {
			return fmt.Errorf("runtime: node %d is not in the layout", n)
		}
	}
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	for _, n := range nodes {
		c.markDead(n)
	}
	return nil
}

// ExecuteRestore recovers those of nodes that owe a recovery, for the service
// control plane, so a restore is level-triggered: re-reconciling a converged
// one is a no-op. Each node takes the first case that fits: dead and pending
// owes a recovery; dead alone is recovered already; one outside the layout is
// skipped; any other owes one if it does not answer a hello. All of it runs
// under ctx, or under a restore root span when ctx is zero; naming no node
// opens no span.
func (c *Coordinator) ExecuteRestore(ctx obs.SpanContext, nodes []int) (_ uint64, err error) {
	if len(nodes) == 0 {
		return c.Epoch(), nil
	}
	if !ctx.Valid() {
		_, root := c.startRoot(ctx, "restore")
		defer func() { root.FinishErr(err) }()
		ctx = root.Context()
	}
	var need []int
	for _, n := range nodes {
		c.mu.Lock()
		dead, pending := c.dead[n], c.pending[n]
		c.mu.Unlock()
		switch {
		case dead && pending:
			need = append(need, n)
		case dead, n < 0 || n >= c.layout.Nodes:
		default:
			if _, err := c.call(n, &wire.Message{Type: wire.MsgHello, Trace: ctx.Trace, Span: ctx.Span}); err != nil {
				need = append(need, n)
			}
		}
	}
	_, err = c.RecoverNodesIn(ctx, need...) // no node: a no-op
	return c.Epoch(), err
}

// downNodes lists, ascending, every node marked dead plus extra: the nodes a
// planner must never choose as a target.
func (c *Coordinator) downNodes(extra ...int) []int {
	c.mu.Lock()
	set := map[int]bool{}
	for n := range c.dead {
		set[n] = true
	}
	c.mu.Unlock()
	for _, n := range extra {
		set[n] = true
	}
	return sortedKeys(set)
}

// pendingRecovery lists dead nodes no recovery has succeeded over yet.
func (c *Coordinator) pendingRecovery() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return sortedKeys(c.pending)
}

// sortedKeys lists a set's members in ascending order.
func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

// execute carries out a placement plan — a recovery's or a relocation's — by
// one rule, and records in the layout exactly the steps that completed:
//
//  1. Each damaged group gets one rebuild request (rebuildGroup) carrying its
//     RehomeParity steps and the RestoreVM steps whose VM's host is dead;
//     groups share no element (orthogonality), so they rebuild concurrently.
//  2. Each RestoreVM step whose VM's host is up is a move, run after the
//     rebuilds so none reads a VM a move has just evicted.
//  3. The layout's Apply records the completed steps: a retry plans only
//     what failed.
//  4. Every alive node learns the parity homes of the groups touched.
//
// The errors of all four are joined.
func (c *Coordinator) execute(ctx obs.SpanContext, tr *obs.Tracer, plan *cluster.Plan) error {
	var groups, moves []int
	rebuilds := map[int][]int{} // group -> indices of its rebuilt steps
	c.mu.Lock()
	for i, s := range plan.Steps {
		if s.Kind == cluster.RestoreVM && !c.dead[s.From] {
			moves = append(moves, i)
			continue
		}
		if rebuilds[s.Group] == nil {
			groups = append(groups, s.Group)
		}
		rebuilds[s.Group] = append(rebuilds[s.Group], i)
	}
	c.mu.Unlock()
	sort.Ints(groups)
	done := make([]bool, len(plan.Steps))
	rebuildErr := parallelDo(len(groups), c.fanoutW, func(i int) error {
		idx := rebuilds[groups[i]]
		steps := make([]cluster.Step, len(idx))
		for j, k := range idx {
			steps[j] = plan.Steps[k]
		}
		if err := c.rebuildGroup(ctx, tr, steps); err != nil {
			return err
		}
		for _, k := range idx {
			done[k] = true
		}
		return nil
	})
	moveErr := parallelDo(len(moves), c.fanoutW, func(i int) error {
		err := c.move(ctx, plan.Steps[moves[i]])
		done[moves[i]] = err == nil
		return err
	})
	var completed []cluster.Step
	touched := map[int]bool{}
	for i, s := range plan.Steps {
		if done[i] {
			completed = append(completed, s)
			touched[s.Group] = true
		}
	}
	return errors.Join(rebuildErr, moveErr,
		c.layout.Apply(&cluster.Plan{Down: plan.Down, Steps: completed, Degraded: plan.Degraded}),
		c.refreshParityPointers(ctx, touched))
}

// rebuildGroup rebuilds one damaged group through one rebuild request to its
// decoder, the target of the group's first step: every lost element with its
// target — a VM whose host is dead respawns with a fresh workload stream, a
// re-home step names its parity slot — the survivors' hosts and alive parity
// homes, and the committed epoch.
func (c *Coordinator) rebuildGroup(ctx obs.SpanContext, tr *obs.Tracer, steps []cluster.Step) (err error) {
	kind := "restore"
	if steps[0].Kind == cluster.RehomeParity {
		kind = "rehome"
	}
	span := tr.Child(ctx, fmt.Sprintf("%s g%d", kind, steps[0].Group), "coord")
	defer func() { span.FinishErr(err) }()
	rc := c.groupRebuild(steps[0].Group)
	for _, s := range steps {
		e := lostElement{Parity: s.Parity, Target: s.TargetNode}
		if s.Kind == cluster.RestoreVM {
			v, _ := c.layout.VM(s.VM)
			vc := c.vmConfig(v)
			vc.Seed = c.vmSeed(s.VM) + int64(rc.Epoch) + 1 // fresh workload stream after respawn
			e.VM = &vc
		}
		rc.Lost = append(rc.Lost, e)
	}
	return c.sendRebuild(span.ContextOr(obs.SpanContext{}), steps[0].TargetNode, rc)
}

// move carries out a RestoreVM step whose VM's host is up, install then
// evict: the target pulls the committed image from the host (the VM is
// quiescent right after a commit, so that image is the whole VM) and only
// once it has adopted the VM is the old host told to drop its copy. A move
// that fails or is refused at either step leaves the VM where it was, and the
// target holds no copy.
func (c *Coordinator) move(ctx obs.SpanContext, s cluster.Step) error {
	v, _ := c.layout.VM(s.VM)
	vc := c.vmConfig(v)
	vc.Seed = c.vmSeed(s.VM) + int64(c.epoch.Load()) + 7919
	rc := c.groupRebuild(v.Group)
	rc.Survivors, rc.ParityPeers, rc.From = nil, nil, &v.Node
	rc.Lost = []lostElement{{VM: &vc, Target: s.TargetNode}}
	if err := c.sendRebuild(ctx, s.TargetNode, rc); err != nil {
		return err
	}
	evict := func(node int) error {
		_, err := c.call(node, &wire.Message{Type: wire.MsgEvict, VM: s.VM, Trace: ctx.Trace, Span: ctx.Span})
		return err
	}
	if err := evict(v.Node); err != nil {
		// The old host did not drop the VM (it refuses one with dirty pages or
		// a staged capture), so the copy just installed must go or two nodes
		// would run it. Best effort: the first error is the one worth reporting.
		evict(s.TargetNode) //nolint:errcheck
		return fmt.Errorf("runtime: evict %q from node %d: %w", s.VM, v.Node, err)
	}
	return nil
}

// groupRebuild starts a rebuild of one group at the committed epoch, naming
// every member and parity block whose node is up as a source.
func (c *Coordinator) groupRebuild(group int) rebuildConfig {
	g := c.layout.Groups[group]
	rc := rebuildConfig{
		Group: group, Members: g.Members, Tolerance: c.layout.Tolerance, Pages: c.pages, PageSize: c.pageSize,
		Epoch: c.epoch.Load(), Survivors: map[string]int{}, ParityPeers: map[int]int{},
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, m := range g.Members {
		if v, _ := c.layout.VM(m); !c.dead[v.Node] {
			rc.Survivors[m] = v.Node
		}
	}
	for i, pn := range g.ParityNodes {
		if !c.dead[pn] {
			rc.ParityPeers[i] = pn
		}
	}
	return rc
}

// sendRebuild has node run a rebuild and checks its acknowledgement.
func (c *Coordinator) sendRebuild(ctx obs.SpanContext, node int, rc rebuildConfig) error {
	text, err := encodeJSON(rc)
	if err != nil {
		return err
	}
	resp, err := c.call(node, &wire.Message{Type: wire.MsgReconstruct, Group: int32(rc.Group), Text: text, Trace: ctx.Trace, Span: ctx.Span})
	if err == nil && resp.Type != wire.MsgReconstructOK {
		err = fmt.Errorf("node replied %v", resp.Type)
	}
	if err != nil {
		return fmt.Errorf("runtime: rebuild of group %d on node %d: %w", rc.Group, node, err)
	}
	return nil
}

// refreshParityPointers pushes the current parity-node assignment of the
// given groups to every alive node: one MsgSetParityBatch per node carrying
// every (group, parity block) pointer.
func (c *Coordinator) refreshParityPointers(ctx obs.SpanContext, groups map[int]bool) error {
	var updates []parityUpdate
	for _, gi := range sortedKeys(groups) {
		for i, pn := range c.layout.Groups[gi].ParityNodes {
			updates = append(updates, parityUpdate{Group: gi, Idx: i, Node: pn})
		}
	}
	if len(updates) == 0 {
		return nil
	}
	text, err := encodeJSON(updates)
	if err != nil {
		return err
	}
	return c.fanout(ctx, "set-parity", c.aliveNodes(),
		func(int) *wire.Message { return &wire.Message{Type: wire.MsgSetParityBatch, Text: text} },
		func(node int, resp *wire.Message) error {
			if resp.Type != wire.MsgSetParityBatchOK {
				return fmt.Errorf("runtime: node %d replied %v to set-parity batch", node, resp.Type)
			}
			return nil
		})
}

// Repair marks a previously failed node as back in service. Its daemon must
// be listening on the original address again (or a replacement daemon on the
// same address); it starts empty and picks up work via Rebalance. A node still
// pending recovery (see markDead) must be recovered before repair.
func (c *Coordinator) Repair(node int) (err error) {
	c.roundMu.Lock()
	defer c.roundMu.Unlock()
	c.mu.Lock()
	dead, pending := c.dead[node], c.pending[node]
	c.mu.Unlock()
	if !dead {
		return fmt.Errorf("runtime: node %d is not dead", node)
	}
	if pending {
		return fmt.Errorf("runtime: node %d has not been recovered; run RecoverNodes first", node)
	}
	// The rejoined daemon needs a fresh configuration (peers, chunking); the
	// layout places nothing on a recovered node, so it hosts nothing until a
	// relocation moves VMs or parity to it. The node stays dead until the
	// configuration lands, so no other call reaches it, and a failed repair
	// retires the pool it opened and can be run again.
	_, root := c.startRoot(obs.SpanContext{}, "repair")
	defer func() { root.FinishErr(err) }()
	c.mu.Lock()
	p := c.openPool(node)
	c.mu.Unlock()
	msg := c.configureMsg(node)
	msg.Trace, msg.Span = root.TraceID(), root.ID()
	_, err = p.Call(msg)
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil {
		c.retirePool(node)
		return fmt.Errorf("runtime: reconfigure repaired node %d: %w", node, err)
	}
	delete(c.dead, node)
	return nil
}
