// Package diskfull implements the paper's comparison baseline: conventional
// checkpointing of every VM image to one shared NAS. Checkpoints serialize
// behind the NAS ingest link and its disk array; recovery must read
// checkpoints back out of the NAS, because the NAS holds the only copies.
package diskfull

import (
	"fmt"

	"dvdc/internal/analytic"
	"dvdc/internal/core"
	"dvdc/internal/storage"
	"dvdc/internal/vm"
)

// Scheme is the disk-full baseline for the discrete-event engine.
type Scheme struct {
	Overheads  *analytic.Diskfull
	NAS        storage.NAS
	VMsPerNode int
	VMCount    int
	Spec       vm.Spec
	// LocalRollback, when true, lets surviving VMs roll back from a local
	// in-memory copy instead of re-fetching from the NAS: an optimistic
	// variant that narrows the recovery gap (ablation knob for E10).
	LocalRollback bool
}

// New assembles the baseline scheme.
func New(p analytic.Platform, nas storage.NAS, vmCount, vmsPerNode int, spec vm.Spec, async bool) (*Scheme, error) {
	ov, err := analytic.NewDiskfull(p, nas, vmCount, spec, async)
	if err != nil {
		return nil, err
	}
	if vmsPerNode <= 0 || vmsPerNode > vmCount {
		return nil, fmt.Errorf("diskfull: invalid vmsPerNode %d (vmCount %d)", vmsPerNode, vmCount)
	}
	return &Scheme{Overheads: ov, NAS: nas, VMsPerNode: vmsPerNode, VMCount: vmCount, Spec: spec}, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string { return s.Overheads.Name() }

// CheckpointOverhead implements core.Scheme.
func (s *Scheme) CheckpointOverhead(window float64) (float64, error) {
	return s.Overheads.Overhead(window)
}

// RecoveryTime implements core.Scheme: the failed node's VMs re-fetch their
// images from the NAS; with LocalRollback the survivors restore from local
// buffers (memory speed), otherwise every VM's rollback image also streams
// out of the NAS, all serialized behind its single egress path.
func (s *Scheme) RecoveryTime(node int) (float64, error) {
	img := float64(s.Spec.ImageBytes)
	fetchVMs := s.VMsPerNode
	if !s.LocalRollback {
		fetchVMs = s.VMCount
	}
	t, err := s.NAS.RestoreFetchTime(float64(fetchVMs) * img)
	if err != nil {
		return 0, err
	}
	load := img / s.Overheads.Platform.CaptureBps
	return s.Overheads.Platform.BaseSec + t + load, nil
}

var _ core.Scheme = (*Scheme)(nil)
