package core

import (
	"fmt"
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
// rounds and full failure-recovery cycles, and is the reference
// implementation the TCP runtime mirrors over the network.
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

// CheckpointRound runs one coordinated checkpoint: in-flight messages drain
// into their receivers (the Sec. IV-A consistency step), then every member
// captures its delta and every parity block of its group folds it in.
// In-process this cannot partially fail, so commit is immediate; the network
// runtime wraps the same sequence in prepare/commit.
func (c *Cluster) CheckpointRound() error {
	if err := c.drainNetwork(); err != nil {
		return err
	}
	for _, g := range c.layout.Groups {
		ks := c.keepers[g.Index]
		for _, name := range g.Members {
			d, err := c.members[name].CaptureDelta()
			if err != nil {
				return fmt.Errorf("core: capture %q: %w", name, err)
			}
			for _, k := range ks {
				if err := k.ApplyDelta(d); err != nil {
					return fmt.Errorf("core: apply delta of %q: %w", name, err)
				}
			}
			c.stats.DeltaBytes += d.PayloadBytes()
		}
	}
	c.rounds++
	c.stats.Rounds = c.rounds
	return nil
}

// CheckpointRoundConcurrent is CheckpointRound with one goroutine per RAID
// group: groups share no members and no keepers, so their capture+fold work
// is embarrassingly parallel — the in-process realization of Sec. IV-B's
// claim that distributing parity "should relieve the CPU burden by a factor
// linear in the amount of machines". Stats merge after the barrier.
func (c *Cluster) CheckpointRoundConcurrent() error {
	if err := c.drainNetwork(); err != nil {
		return err
	}
	type result struct {
		bytes int64
		err   error
	}
	results := make([]result, len(c.layout.Groups))
	var wg sync.WaitGroup
	for gi := range c.layout.Groups {
		wg.Add(1)
		go func(gi int) {
			defer wg.Done()
			g := c.layout.Groups[gi]
			ks := c.keepers[g.Index]
			var total int64
			for _, name := range g.Members {
				d, err := c.members[name].CaptureDelta()
				if err != nil {
					results[gi] = result{err: fmt.Errorf("core: capture %q: %w", name, err)}
					return
				}
				for _, k := range ks {
					if err := k.ApplyDelta(d); err != nil {
						results[gi] = result{err: fmt.Errorf("core: apply delta of %q: %w", name, err)}
						return
					}
				}
				total += d.PayloadBytes()
			}
			results[gi] = result{bytes: total}
		}(gi)
	}
	wg.Wait()
	for _, r := range results {
		if r.err != nil {
			return r.err
		}
		c.stats.DeltaBytes += r.bytes
	}
	c.rounds++
	c.stats.Rounds = c.rounds
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
	// Snapshot parity homes before recovery mutates the layout.
	parityHomes := map[int][]int{}
	for _, g := range c.layout.Groups {
		parityHomes[g.Index] = append([]int(nil), g.ParityNodes...)
	}
	down := append([]int(nil), ns...)
	for d := range c.down {
		down = append(down, d)
	}
	plan, err := c.layout.PlanRecovery(down...)
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
			home := parityHomes[gi][i]
			if newDown[home] || c.down[home] {
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
	for _, s := range plan.Steps {
		if s.Kind != cluster.RehomeParity {
			continue
		}
		gi := s.Group
		g := c.layout.Groups[gi]
		// Identify which parity indices of this group died and are not yet
		// rebuilt this pass.
		for i, home := range parityHomes[gi] {
			if !newDown[home] {
				continue
			}
			initial := make(map[string][]byte, len(g.Members))
			epochs := make(map[string]uint64, len(g.Members))
			for _, name := range g.Members {
				initial[name] = c.members[name].CommittedImage()
				epochs[name] = c.members[name].Epoch()
			}
			nk, err := NewMKeeper(gi, i, c.layout.Tolerance, initial)
			if err != nil {
				return nil, err
			}
			if err := nk.SetEpochs(epochs); err != nil {
				return nil, err
			}
			c.keepers[gi][i] = nk
			c.stats.ParityRebuilds++
			parityHomes[gi][i] = -1 // consumed: don't rebuild twice
			break                   // one RehomeParity step handles one block
		}
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
