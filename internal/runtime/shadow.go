package runtime

import (
	"fmt"
	"hash/fnv"

	"dvdc/internal/cluster"
	"dvdc/internal/vm"
)

// Shadow is an in-process model of what the distributed cluster's committed
// VM state must be. It runs the same vm.Machine and vm.Workload types the
// nodes run, seeded identically (vmWorkloadSeed, and the coordinator's
// post-recovery and post-rebalance reseed formulas), and mirrors each
// coordinator lifecycle operation: step, commit, abort, recovery, rebalance.
// Because workloads are deterministic and page content depends only on the
// write stream, the shadow's committed images are bit-identical to the
// cluster's — any divergence the soak harness sees is a real protocol bug
// (or an injected fault the protocol failed to mask), never model noise.
//
// The shadow deliberately models no parity, no placement, and no transport:
// it is the oracle for *what* the committed state must be, not *where* it
// lives or how it got there.
type Shadow struct {
	seedBase int64
	workload string // workload kind every VM runs ("" = uniform)
	epoch    uint64
	vms      map[string]*shadowVM
}

type shadowVM struct {
	machine   *vm.Machine
	workload  vm.Workload
	committed []byte
}

// NewShadowWith mirrors a freshly Setup() cluster: every VM at protocol epoch
// 0 with its initial image committed and a workload of the coordinator's kind
// (SetWorkload; "" = uniform) seeded exactly like the coordinator seeds it.
func NewShadowWith(layout *cluster.Layout, pages, pageSize int, seed int64, workload string) (*Shadow, error) {
	s := &Shadow{seedBase: seed, workload: workload, vms: map[string]*shadowVM{}}
	for _, v := range layout.VMs {
		m, err := vm.NewMachine(v.Name, pages, pageSize)
		if err != nil {
			return nil, err
		}
		sv := &shadowVM{
			machine:  m,
			workload: newWorkload(workload, vmWorkloadSeed(seed, v.Name)),
		}
		sv.committed = m.Image()
		m.BeginEpoch()
		s.vms[v.Name] = sv
	}
	return s, nil
}

// Epoch returns the shadow's committed protocol epoch.
func (s *Shadow) Epoch() uint64 { return s.epoch }

// Step mirrors Coordinator.Step: n workload steps on every VM.
func (s *Shadow) Step(n uint64) {
	for _, sv := range s.vms {
		for i := uint64(0); i < n; i++ {
			sv.workload.Step(sv.machine)
		}
	}
}

// Commit mirrors a checkpoint round that entered the commit phase — including
// one that ended in a *PartialCommitError*: the epoch advances and every VM's
// committed image becomes its live state. (VMs hosted on the node that failed
// mid-commit are covered too: their deltas were folded into surviving parity
// during the round, so their reconstruction yields exactly this image.)
func (s *Shadow) Commit() {
	s.epoch++
	for _, sv := range s.vms {
		sv.committed = sv.machine.Image()
		sv.machine.BeginEpoch()
	}
}

// Abort mirrors a checkpoint round that failed during prepare: committed
// images and the epoch stay put, and the machines keep their stepped state
// (the real protocol's unstage only re-marks the staged pages dirty).
func (s *Shadow) Abort() {}

// Recover mirrors Coordinator.RecoverNodes: every surviving VM rolls its
// machine back to the committed image, and each VM the plan restored gets a
// fresh workload stream seeded with the coordinator's post-respawn formula at
// the given committed epoch.
func (s *Shadow) Recover(plan *cluster.Plan, epoch uint64) error {
	for name, sv := range s.vms {
		if err := sv.machine.LoadImage(sv.committed); err != nil {
			return fmt.Errorf("shadow: rollback %q: %w", name, err)
		}
	}
	for _, st := range plan.Steps {
		if st.Kind != cluster.RestoreVM {
			continue
		}
		sv, ok := s.vms[st.VM]
		if !ok {
			return fmt.Errorf("shadow: recovery plan restores unknown VM %q", st.VM)
		}
		sv.workload = newWorkload(s.workload, vmWorkloadSeed(s.seedBase, st.VM)+int64(epoch)+1)
	}
	return nil
}

// Rebalance mirrors Coordinator.Rebalance: each moved VM is re-installed from
// its committed image (it is quiescent right after a commit) with a fresh
// workload stream under the rebalance reseed formula.
func (s *Shadow) Rebalance(plan *cluster.Plan, epoch uint64) error {
	for _, st := range plan.Steps {
		if st.Kind != cluster.RestoreVM {
			continue
		}
		sv, ok := s.vms[st.VM]
		if !ok {
			return fmt.Errorf("shadow: rebalance plan moves unknown VM %q", st.VM)
		}
		if err := sv.machine.LoadImage(sv.committed); err != nil {
			return fmt.Errorf("shadow: reinstall %q: %w", st.VM, err)
		}
		sv.workload = newWorkload(s.workload, vmWorkloadSeed(s.seedBase, st.VM)+int64(epoch)+7919)
	}
	return nil
}

// Checksums returns the FNV-1a checksum of every VM's committed image, the
// same fingerprint the nodes compute for MsgChecksum.
func (s *Shadow) Checksums() map[string]uint64 {
	out := make(map[string]uint64, len(s.vms))
	for name, sv := range s.vms {
		h := fnv.New64a()
		h.Write(sv.committed)
		out[name] = h.Sum64()
	}
	return out
}
