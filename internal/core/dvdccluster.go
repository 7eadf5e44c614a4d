package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dvdc/internal/cluster"
	"dvdc/internal/comm"
	"dvdc/internal/parity"
	"dvdc/internal/vm"
	"dvdc/internal/wire"
)

// Cluster is the byte-real, in-process DVDC cluster: real vm.Machines placed
// per a cluster.Layout, one Member per VM, and one MKeeper per parity block
// of every RAID group, each on its layout-assigned parity node. With
// tolerance 1 the parity code is plain XOR; higher tolerances use the
// GF(256) RS generalization, so the cluster survives any simultaneous loss
// of up to `tolerance` physical nodes. It executes coordinated checkpoint
// rounds — the TCP runtime's two-phase round on the same Member and MKeeper
// primitives, without the network — full failure-recovery cycles and
// proactive evacuations, and places elements by cluster's planners alone.
type Cluster struct {
	layout   *cluster.Layout
	members  map[string]*Member
	keepers  map[int][]*MKeeper // group -> one keeper per parity block
	down     map[int]bool
	rounds   uint64
	stats    ClusterStats
	attempts uint64 // round attempts begun, numbered as the runtime coordinator does
	floor    uint64 // the last aborted attempt: keepers refuse batches at or below it

	network *comm.Network
	deliver DeliverFunc
}

// DeliverFunc applies one in-flight message to its destination machine:
// the application-defined "receive" (e.g. write the payload into a mailbox
// page). It runs during the coordinated checkpoint's drain phase and during
// explicit Deliver calls.
type DeliverFunc func(dst *vm.Machine, m comm.Message) error

// ClusterStats counts protocol work.
type ClusterStats struct {
	Rounds           uint64
	DeltaBytes       int64 // checkpoint delta payload shipped to keepers
	Reconstructions  int   // lost VMs rebuilt from parity
	ReconstructBytes int64 // survivor image bytes read during reconstructions
	ParityRebuilds   int   // keepers recomputed after losing their node
	Rollbacks        int   // member rollbacks performed during recoveries
}

// NewCluster builds machines for every VM in the layout (pagesPerVM pages of
// pageSize bytes each) and initializes members and keepers. Every group's
// parity blocks are computed from its members' initial full checkpoints.
func NewCluster(layout *cluster.Layout, pagesPerVM, pageSize int) (*Cluster, error) {
	if layout == nil {
		return nil, fmt.Errorf("core: nil layout")
	}
	if err := layout.Validate(); err != nil {
		return nil, err
	}
	c := &Cluster{
		layout:  layout,
		members: make(map[string]*Member, len(layout.VMs)),
		keepers: make(map[int][]*MKeeper, len(layout.Groups)),
		down:    map[int]bool{},
	}
	for _, v := range layout.VMs {
		m, err := vm.NewMachine(v.Name, pagesPerVM, pageSize)
		if err != nil {
			return nil, err
		}
		mem, err := NewMember(m)
		if err != nil {
			return nil, err
		}
		c.members[v.Name] = mem
	}
	for _, g := range layout.Groups {
		initial := make(map[string][]byte, len(g.Members))
		for _, name := range g.Members {
			initial[name] = c.members[name].CommittedImage()
		}
		ks := make([]*MKeeper, layout.Tolerance)
		for i := range ks {
			k, err := NewMKeeper(g.Index, i, layout.Tolerance, initial)
			if err != nil {
				return nil, err
			}
			ks[i] = k
		}
		c.keepers[g.Index] = ks
	}
	return c, nil
}

// Layout exposes the (live, mutated-by-recovery) layout.
func (c *Cluster) Layout() *cluster.Layout { return c.layout }

// Stats returns protocol counters.
func (c *Cluster) Stats() ClusterStats { return c.stats }

// Member returns a VM's protocol member (its committed image and epoch), or
// nil for an unknown VM.
func (c *Cluster) Member(name string) *Member { return c.members[name] }

// Keepers returns a group's parity keepers, by parity index.
func (c *Cluster) Keepers(group int) []*MKeeper { return slices.Clone(c.keepers[group]) }

// Machine returns the running machine for a VM so workloads can execute.
func (c *Cluster) Machine(name string) (*vm.Machine, error) {
	mem, ok := c.members[name]
	if !ok {
		return nil, fmt.Errorf("core: unknown VM %q", name)
	}
	return mem.Machine(), nil
}

// VMNames returns every VM name in a stable order.
func (c *Cluster) VMNames() []string {
	out := make([]string, 0, len(c.members))
	for name := range c.members {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// AttachNetwork couples an inter-VM message network to the cluster. The
// coordinated checkpoint then implements the paper's Sec. IV-A consistency
// step: all in-flight messages drain into their receivers before capture,
// so the checkpointed cut has empty channels; a recovery discards the
// post-checkpoint in-flight messages along with the rolled-back sender
// state, which keeps sends and receives exactly consistent.
func (c *Cluster) AttachNetwork(n *comm.Network, deliver DeliverFunc) error {
	if n == nil || deliver == nil {
		return fmt.Errorf("core: AttachNetwork needs a network and a deliver function")
	}
	c.network = n
	c.deliver = deliver
	return nil
}

// Deliver flushes the pending messages for one VM into its machine (a
// mid-interval receive, outside any checkpoint).
func (c *Cluster) Deliver(dst string) (int, error) {
	if c.network == nil {
		return 0, fmt.Errorf("core: no network attached")
	}
	m, err := c.Machine(dst)
	if err != nil {
		return 0, err
	}
	return c.network.DeliverTo(dst, func(msg comm.Message) error {
		return c.deliver(m, msg)
	})
}

// drainNetwork empties every channel into the receivers: the quiesce step.
func (c *Cluster) drainNetwork() error {
	if c.network == nil {
		return nil
	}
	_, err := c.network.DrainAll(func(msg comm.Message) error {
		m, merr := c.Machine(msg.Dst)
		if merr != nil {
			return merr
		}
		return c.deliver(m, msg)
	})
	return err
}

// CheckpointRound runs one coordinated checkpoint as the TCP runtime's
// two-phase round, in process, under the same participant rules. In-flight
// messages drain into their receivers (the Sec. IV-A consistency step). Then
// every group prepares the round's attempt concurrently — groups share no
// member and no keeper, the in-process form of Sec. IV-B's distributed parity
// work: each member stages its capture, and each chunk its cursor cuts from it
// is rendered once and folded into every parity block of the group with
// MKeeper.Fold. Then the keepers commit the epoch and the members advance. A
// failed prepare aborts the way the runtime's abort does: the attempt floor
// rises to it, every keeper drops its round and every member unstages.
func (c *Cluster) CheckpointRound() error {
	if err := c.drainNetwork(); err != nil {
		return err
	}
	c.attempts++
	epoch := c.rounds + 1
	errs := make([]error, len(c.layout.Groups))
	var wg sync.WaitGroup
	for gi := range c.layout.Groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[gi] = c.prepareGroup(gi)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		c.floor = c.attempts
		for _, ks := range c.keepers {
			for _, k := range ks {
				k.Drop()
			}
		}
		for _, mem := range c.members {
			mem.Unstage()
		}
		return err
	}
	for gi, g := range c.layout.Groups {
		for _, k := range c.keepers[gi] {
			if err := k.Commit(epoch); err != nil {
				return fmt.Errorf("core: commit parity[%d] of group %d: %w", k.ParityIndex(), gi, err)
			}
		}
		for _, name := range g.Members {
			mem := c.members[name]
			shipped := int64(mem.Staged().PageCount() * mem.Machine().PageSize())
			if err := mem.Advance(epoch); err != nil {
				return fmt.Errorf("core: advance %q: %w", name, err)
			}
			c.stats.DeltaBytes += shipped
		}
	}
	c.rounds++
	c.stats.Rounds = c.rounds
	return nil
}

// prepareGroup is one group's prepare: every member stages its capture, and
// each chunk of it is rendered into one scratch buffer and folded from it into
// every parity block of the group, stamped with the round's attempt.
func (c *Cluster) prepareGroup(gi int) error {
	var buf []byte
	for _, name := range c.layout.Groups[gi].Members {
		mem := c.members[name]
		d, _, err := mem.Stage(false)
		if err != nil {
			return err
		}
		m := mem.Machine()
		chunks := d.Chunks(m.PageSize(), int(m.ImageBytes()), wire.DefaultChunkSize)
		for ch, ok := chunks.Next(); ok; ch, ok = chunks.Next() {
			if int(ch.RawLen) > len(buf) {
				buf = make([]byte, ch.RawLen)
			}
			ch.Data = buf[:ch.RawLen]
			if err := mem.DeltaInto(d, ch.Data, int(ch.Offset)); err != nil {
				return err
			}
			for _, k := range c.keepers[gi] {
				if _, err := k.Fold(name, d.Epoch, c.attempts, c.floor, &ch); err != nil {
					return fmt.Errorf("core: fold %q into parity[%d] of group %d: %w", name, k.ParityIndex(), gi, err)
				}
			}
		}
	}
	return nil
}

// FailureReport describes a completed recovery.
type FailureReport struct {
	Nodes    []int
	Plan     *cluster.Plan
	LostVMs  []string
	Degraded bool
}

// Node returns the first failed node (convenience for single-node reports).
func (r *FailureReport) Node() int {
	if len(r.Nodes) == 0 {
		return -1
	}
	return r.Nodes[0]
}

// FailNode simulates the loss of one physical node; see FailNodes.
func (c *Cluster) FailNode(n int) (*FailureReport, error) { return c.FailNodes(n) }

// FailNodes simulates the simultaneous loss of the given physical nodes and
// performs the full DVDC recovery: every damaged group is rebuilt in one pass
// from k of its surviving committed images and parity blocks (see rebuild) —
// its lost VMs respawn at the committed epoch and its lost parity blocks are
// re-encoded on their new homes; every surviving VM rolls back to its
// committed checkpoint; and the layout is updated per the recovery plan. On
// return the cluster is consistent at the last committed epoch.
func (c *Cluster) FailNodes(ns ...int) (*FailureReport, error) {
	if len(ns) == 0 {
		return &FailureReport{Plan: &cluster.Plan{}}, nil
	}
	for _, n := range ns {
		if c.down[n] {
			return nil, fmt.Errorf("core: node %d is already down", n)
		}
	}
	if !c.layout.Survives(ns...) {
		return nil, fmt.Errorf("core: failure of nodes %v exceeds parity tolerance (data loss)", ns)
	}
	plan, err := c.layout.PlanRecovery(append(c.downNodes(), ns...)...)
	if err != nil {
		return nil, err
	}
	report := &FailureReport{Nodes: append([]int(nil), ns...), Plan: plan, Degraded: plan.Degraded}
	sort.Ints(report.Nodes)
	for _, s := range plan.Steps {
		if s.Kind == cluster.RestoreVM {
			report.LostVMs = append(report.LostVMs, s.VM)
		}
	}
	sort.Strings(report.LostVMs)
	if err := c.rebuildSteps(plan); err != nil {
		return nil, err
	}

	// Global rollback — the paper's recovery semantics: "DVDC requires all
	// nodes to roll back to their previous checkpoints". The channels drop
	// their in-flight messages with it: they were sent after the committed
	// cut, and their senders are rolling back to before the sends, so
	// discarding them is what keeps the cut consistent.
	if c.network != nil {
		c.network.Clear()
	}
	for name, mem := range c.members {
		if _, lost := slices.BinarySearch(report.LostVMs, name); lost {
			continue // respawned at the committed state
		}
		mem.Rollback()
		c.stats.Rollbacks++
	}

	if err := c.layout.Apply(plan); err != nil {
		return nil, err
	}
	for _, n := range ns {
		c.down[n] = true
	}
	return report, nil
}

// RepairNode marks a previously failed node as available again. VMs do not
// move back automatically; subsequent recoveries may use it as a target.
func (c *Cluster) RepairNode(n int) error {
	if !c.down[n] {
		return fmt.Errorf("core: node %d is not down", n)
	}
	delete(c.down, n)
	return nil
}

// downNodes returns the nodes currently out of service, sorted.
func (c *Cluster) downNodes() []int {
	down := make([]int, 0, len(c.down))
	for n := range c.down {
		down = append(down, n)
	}
	sort.Ints(down)
	return down
}

// rebuildSteps rebuilds every element the plan's steps name — the VMs of its
// RestoreVM steps, the parity slots of its RehomeParity steps — one rebuild
// per damaged group, with every element on a node of plan.Down unavailable.
// Recovery and evacuation both rebuild this way; where each element goes is
// the layout's business.
func (c *Cluster) rebuildSteps(plan *cluster.Plan) error {
	lost := map[int][]Element{}
	for _, s := range plan.Steps {
		e := Element{VM: s.VM}
		if s.Kind == cluster.RehomeParity {
			e = Element{Parity: s.Parity}
		}
		lost[s.Group] = append(lost[s.Group], e)
	}
	for gi := range c.layout.Groups {
		if lost[gi] == nil {
			continue
		}
		if err := c.rebuild(gi, lost[gi], plan.Down); err != nil {
			return fmt.Errorf("core: rebuild group %d: %w", gi, err)
		}
	}
	return nil
}

// rebuild computes the lost elements of group gi the way the runtime's
// rebuild does: PlanShards picks k available shards, each shard's committed
// bytes are read once into one buffer and folded into every output, and each
// output is adopted as is at the members' committed epoch — a VM respawns
// through NewMemberAt, a parity block through NewMKeeperFromBlock.
func (c *Cluster) rebuild(gi int, lost []Element, down []int) error {
	g := c.layout.Groups[gi]
	shards, err := PlanShards(g.Members, c.layout.Tolerance, lost, func(e Element) bool {
		if v, ok := c.layout.VM(e.VM); ok {
			return !slices.Contains(down, v.Node)
		}
		return !slices.Contains(down, g.ParityNodes[e.Parity])
	})
	if err != nil {
		return err
	}
	// Every member of the group is at one epoch: each round advances them all.
	ref := c.members[g.Members[0]]
	size, epoch := int(ref.Machine().ImageBytes()), ref.Epoch()
	buf := make([]byte, size)
	outs := make([][]byte, len(lost))
	for o := range outs {
		outs[o] = make([]byte, size)
	}
	var read int64 // survivor image bytes, counted once, by the first VM rebuilt
	for _, s := range shards {
		if s.VM != "" {
			c.members[s.VM].CommittedInto(buf, 0)
			read += int64(size)
		} else {
			c.keepers[gi][s.Parity].ReadParity(buf, 0)
		}
		for o, out := range outs {
			if err := parity.MulSliceInto(out, buf, s.Coefs[o]); err != nil {
				return err
			}
		}
	}
	for o, e := range lost {
		if e.VM == "" {
			k, err := NewMKeeperFromBlock(gi, e.Parity, c.layout.Tolerance, g.Members, outs[o], epoch)
			if err != nil {
				return err
			}
			c.keepers[gi][e.Parity] = k
			c.stats.ParityRebuilds++
			continue
		}
		mem, err := NewMemberAt(e.VM, ref.Machine().PageSize(), outs[o], epoch)
		if err != nil {
			return err
		}
		c.members[e.VM] = mem
		c.stats.Reconstructions++
		c.stats.ReconstructBytes += read
		read = 0
	}
	return nil
}

// VerifyParity recomputes every group's parity blocks from the members'
// committed images and compares them with the keepers' blocks; it returns
// the first mismatch. Tests use it as the global protocol invariant.
func (c *Cluster) VerifyParity() error {
	for _, g := range c.layout.Groups {
		initial := make(map[string][]byte, len(g.Members))
		for _, name := range g.Members {
			initial[name] = c.members[name].CommittedImage()
		}
		for i, k := range c.keepers[g.Index] {
			want, err := NewMKeeper(g.Index, i, c.layout.Tolerance, initial)
			if err != nil {
				return err
			}
			got, exp := k.Parity(), want.Parity()
			if len(got) != len(exp) {
				return fmt.Errorf("core: group %d parity[%d] length %d, want %d", g.Index, i, len(got), len(exp))
			}
			for j := range got {
				if got[j] != exp[j] {
					return fmt.Errorf("core: group %d parity[%d] mismatch at byte %d", g.Index, i, j)
				}
			}
		}
	}
	return nil
}
