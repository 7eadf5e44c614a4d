package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"

	"dvdc/internal/cluster"
	"dvdc/internal/comm"
	"dvdc/internal/vm"
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
	layout  *cluster.Layout
	members map[string]*Member
	keepers map[int][]*MKeeper // group -> one keeper per parity block
	down    map[int]bool
	rounds  uint64
	stats   ClusterStats

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
// two-phase round, in process. In-flight messages drain into their receivers
// (the Sec. IV-A consistency step). Then every group prepares concurrently —
// groups share no member and no keeper, the in-process form of Sec. IV-B's
// distributed parity work: each member stages its capture, and each staged
// page is rendered once and folded into every parity block of the group with
// MKeeper.Stage. Then the keepers commit and the members advance. A failed
// prepare aborts the round the way the runtime's abort does: every keeper
// drops its staged pages and every member unstages, so nothing moves.
func (c *Cluster) CheckpointRound() error {
	if err := c.drainNetwork(); err != nil {
		return err
	}
	staged := make([][]*Delta, len(c.layout.Groups))
	errs := make([]error, len(c.layout.Groups))
	var wg sync.WaitGroup
	for gi := range c.layout.Groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			staged[gi], errs[gi] = c.prepareGroup(gi)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for gi, ds := range staged {
			for _, k := range c.keepers[gi] {
				k.Drop()
			}
			for _, d := range ds {
				c.members[d.VMID].Unstage(d)
			}
		}
		return err
	}
	for gi, ds := range staged {
		epochs := make(map[string]uint64, len(ds))
		for _, d := range ds {
			epochs[d.VMID] = d.Epoch
		}
		for _, k := range c.keepers[gi] {
			if err := k.Commit(epochs); err != nil {
				return fmt.Errorf("core: commit parity[%d] of group %d: %w", k.ParityIndex(), gi, err)
			}
		}
		for _, d := range ds {
			mem := c.members[d.VMID]
			if err := mem.Advance(d); err != nil {
				return fmt.Errorf("core: advance %q: %w", d.VMID, err)
			}
			c.stats.DeltaBytes += int64(len(d.Pages) * mem.Machine().PageSize())
		}
	}
	c.rounds++
	c.stats.Rounds = c.rounds
	return nil
}

// prepareGroup is one group's prepare: every member stages its capture, and
// each staged page is rendered into one scratch page and folded from it into
// every parity block of the group. It returns the captures staged so far,
// even on error, so the caller can take them back.
func (c *Cluster) prepareGroup(gi int) ([]*Delta, error) {
	g := c.layout.Groups[gi]
	ds := make([]*Delta, 0, len(g.Members))
	var page []byte
	for _, name := range g.Members {
		mem := c.members[name]
		d, _ := mem.Stage(false)
		ds = append(ds, d)
		ps := mem.Machine().PageSize()
		if len(page) != ps {
			page = make([]byte, ps)
		}
		for _, p := range d.Pages {
			mem.DeltaInto(page, p.Index*ps)
			for _, k := range c.keepers[gi] {
				if err := k.Stage(name, p.Index*ps, page); err != nil {
					return ds, fmt.Errorf("core: fold %q into parity[%d] of group %d: %w", name, k.ParityIndex(), gi, err)
				}
			}
		}
	}
	return ds, nil
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
// performs the full DVDC recovery: every VM hosted on them is reconstructed
// from its group's surviving committed images plus the surviving parity
// blocks (up to `tolerance` losses per group); keepers homed on failed nodes
// are recomputed from their members' committed images; every surviving VM
// rolls back to its committed checkpoint; and the layout is updated per the
// recovery plan. On return the cluster is consistent at the last committed
// epoch.
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
	newDown := map[int]bool{}
	for _, n := range ns {
		newDown[n] = true
	}
	report := &FailureReport{Nodes: append([]int(nil), ns...), Plan: plan, Degraded: plan.Degraded}
	sort.Ints(report.Nodes)

	// Phase 1: reconstruct lost VMs group by group. A group may lose up to
	// `tolerance` members at once; gather all of its losses first.
	lostByGroup := map[int][]string{}
	for _, s := range plan.Steps {
		if s.Kind == cluster.RestoreVM {
			lostByGroup[s.Group] = append(lostByGroup[s.Group], s.VM)
			report.LostVMs = append(report.LostVMs, s.VM)
		}
	}
	sort.Strings(report.LostVMs)
	for gi, lost := range lostByGroup {
		g := c.layout.Groups[gi]
		survivors := map[string][]byte{}
		lostSet := map[string]bool{}
		for _, id := range lost {
			lostSet[id] = true
		}
		for _, name := range g.Members {
			if lostSet[name] {
				continue
			}
			img := c.members[name].CommittedImage()
			survivors[name] = img
			c.stats.ReconstructBytes += int64(len(img))
		}
		parityBlocks := map[int][]byte{}
		for i, k := range c.keepers[gi] {
			if home := g.ParityNodes[i]; newDown[home] || c.down[home] {
				continue // this parity block died with its node
			}
			parityBlocks[i] = k.Parity()
		}
		rebuilt, err := ReconstructMembers(c.layout.Tolerance, g.Members, survivors, parityBlocks, lost)
		if err != nil {
			return nil, fmt.Errorf("core: reconstruct group %d: %w", gi, err)
		}
		for _, name := range lost {
			img, ok := rebuilt[name]
			if !ok {
				return nil, fmt.Errorf("core: group %d reconstruction missing %q", gi, name)
			}
			old := c.members[name].Machine()
			fresh, err := vm.NewMachine(name, old.NumPages(), old.PageSize())
			if err != nil {
				return nil, err
			}
			mem, err := NewMember(fresh)
			if err != nil {
				return nil, err
			}
			if err := mem.RestoreImage(img, c.members[name].Epoch()); err != nil {
				return nil, err
			}
			c.members[name] = mem
			c.stats.Reconstructions++
		}
	}

	// Phase 2: rebuild parity blocks that lived on failed nodes from their
	// members' committed images (members are all intact now).
	if err := c.rebuildParityOn(ns...); err != nil {
		return nil, err
	}

	// Phase 3: global rollback — the paper's recovery semantics: "DVDC
	// requires all nodes to roll back to their previous checkpoints". The
	// channels drop their in-flight messages with it: they were sent after
	// the committed cut, and their senders are rolling back to before the
	// sends, so discarding them is what keeps the cut consistent.
	if c.network != nil {
		c.network.Clear()
	}
	lostSet := map[string]bool{}
	for _, lv := range report.LostVMs {
		lostSet[lv] = true
	}
	for name, mem := range c.members {
		if lostSet[name] {
			continue // already at the committed state by reconstruction
		}
		mem.Rollback()
		c.stats.Rollbacks++
	}

	if err := c.layout.ApplyRecovery(plan); err != nil {
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

// rebuildParityOn re-homes every parity block the layout still places on one
// of the given nodes: a fresh keeper encodes the group's committed images and
// takes over the members' epochs. Recovery and evacuation both re-home parity
// this way; where the block goes is the layout's business.
func (c *Cluster) rebuildParityOn(nodes ...int) error {
	for _, g := range c.layout.Groups {
		for i, home := range g.ParityNodes {
			if !slices.Contains(nodes, home) {
				continue
			}
			initial := make(map[string][]byte, len(g.Members))
			epochs := make(map[string]uint64, len(g.Members))
			for _, name := range g.Members {
				initial[name] = c.members[name].CommittedImage()
				epochs[name] = c.members[name].Epoch()
			}
			k, err := NewMKeeper(g.Index, i, c.layout.Tolerance, initial)
			if err != nil {
				return err
			}
			if err := k.SetEpochs(epochs); err != nil {
				return err
			}
			c.keepers[g.Index][i] = k
			c.stats.ParityRebuilds++
		}
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
