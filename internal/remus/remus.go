// Package remus implements the Remus-style active/standby replication
// baseline the paper compares against (Cully et al., NSDI'08). Each
// protected VM runs on an active host and streams epoch-based incremental
// checkpoints to a standby host, which always holds the most recent
// committed image; on failure the standby activates in roughly constant
// time, losing at most one epoch of work.
//
// The package provides the core.Scheme timing model E7 runs on the
// discrete-event engine, and the memory factor E7 compares. The structural
// contrast with DVDC (Sec. VI): Remus consumes a full image replica per VM
// (2x memory) and dedicates standby capacity, while DVDC stores one parity
// block per RAID group (1 + 1/groupSize memory factor) and keeps every node
// computing, but must roll the whole group back and run a parity
// reconstruction on failure.
package remus

import (
	"fmt"
	"math"

	"dvdc/internal/core"
	"dvdc/internal/netsim"
	"dvdc/internal/vm"
)

// MemoryFactor is Remus's state overhead: a full replica per VM.
const MemoryFactor = 2.0

// Scheme is the Remus timing model for the discrete-event engine. The
// engine's Interval plays the role of the epoch length; checkpoints are the
// epoch commits.
type Scheme struct {
	Link        netsim.Link
	CaptureBps  float64
	PauseSec    float64 // fixed per-epoch pause (buffer swap)
	FailoverSec float64
	Spec        vm.Spec
}

// NewScheme builds a Remus timing model with Cully-era defaults.
func NewScheme(spec vm.Spec) (*Scheme, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	return &Scheme{
		Link:        netsim.GigE,
		CaptureBps:  4 * float64(1<<30),
		PauseSec:    5e-3,
		FailoverSec: 1.0,
		Spec:        spec,
	}, nil
}

// Name implements core.Scheme.
func (s *Scheme) Name() string { return "Remus (active/standby)" }

// CheckpointOverhead implements core.Scheme: the pause plus the capture,
// plus backpressure when the epoch's dirty bytes exceed what the link can
// drain within the epoch (asynchronous shipping hides transfer time only
// while the link keeps up).
func (s *Scheme) CheckpointOverhead(window float64) (float64, error) {
	if window <= 0 {
		return 0, fmt.Errorf("remus: invalid epoch window %v", window)
	}
	dirty := s.Spec.CheckpointBytes(window)
	over := s.PauseSec + dirty/s.CaptureBps
	drain := dirty/s.Link.BandwidthBps + s.Link.LatencySec
	if drain > window {
		over += drain - window // the buffer cannot drain in time; stall
	}
	return over, nil
}

// RecoveryTime implements core.Scheme: failover is near-constant — the
// standby already holds the state.
func (s *Scheme) RecoveryTime(int) (float64, error) { return s.FailoverSec, nil }

// SustainableEpoch returns the shortest epoch the link can sustain for this
// spec (where drain time equals the epoch): Cully et al. ran up to 40
// epochs/second on fast dirty-set workloads.
func (s *Scheme) SustainableEpoch() float64 {
	lo, hi := 1e-4, 3600.0
	for i := 0; i < 100; i++ {
		mid := math.Sqrt(lo * hi)
		dirty := s.Spec.CheckpointBytes(mid)
		if dirty/s.Link.BandwidthBps+s.Link.LatencySec > mid {
			lo = mid
		} else {
			hi = mid
		}
	}
	return hi
}

var _ core.Scheme = (*Scheme)(nil)
