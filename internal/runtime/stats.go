package runtime

import (
	"fmt"
	"time"
)

// ShipCounts are the counts one prepare produces, summed upward: a node's
// running total (NodeStats), one round's cluster-wide sum (RoundStats) and a
// soak round's sum over its checkpoints (RoundRecord). Byte and chunk counts
// are per parity peer: a delta shipped to m keepers counts m times.
type ShipCounts struct {
	BytesShipped    int64 `json:"bytes_shipped"`     // chunk frame bytes shipped, framing included
	ChunksShipped   int64 `json:"chunks_shipped"`    // chunk frames shipped (every delta ships at least one)
	DeltaRawBytes   int64 `json:"delta_raw_bytes"`   // delta payload shipped, framing excluded
	DedupHits       int64 `json:"dedup_hits"`        // dirty pages capture skipped: equal to the committed image
	DedupMisses     int64 `json:"dedup_misses"`      // dirty pages that changed: captured and shipped
	DedupSavedBytes int64 `json:"dedup_saved_bytes"` // raw delta bytes not shipped thanks to hits
}

// Add sums o into s.
func (s *ShipCounts) Add(o ShipCounts) {
	s.BytesShipped += o.BytesShipped
	s.ChunksShipped += o.ChunksShipped
	s.DeltaRawBytes += o.DeltaRawBytes
	s.DedupHits += o.DedupHits
	s.DedupMisses += o.DedupMisses
	s.DedupSavedBytes += o.DedupSavedBytes
}

// RoundStats is the coordinator's record of its most recent checkpoint round:
// per-phase wall-clock, the sum of the prepare replies' ShipCounts, and
// transport health. An aborted round sums only the replies that came back.
// Fetch it with Coordinator.RoundStats after Checkpoint; cmd/dvdcctl prints
// it per round. A recovery's wall-clock is dvdc_round_phase_seconds{phase=
// "recovery"}, and its span tree holds the rest.
type RoundStats struct {
	ShipCounts                // summed over the round's prepare replies
	Epoch       uint64        // epoch the round targeted
	PrepareWall time.Duration // prepare fan-out wall-clock (capture + delta shipping)
	CommitWall  time.Duration // commit fan-out wall-clock (parity folding)
	RPCRetries  int64         // transport re-dials/retries during this round
	Aborted     bool          // the round failed in prepare and was aborted
	DeadDuring  []int         // nodes declared dead by the commit phase
	TraceID     uint64        // the round's span tree (0 when no tracer is attached)
}

// String renders a one-line per-round report.
func (r RoundStats) String() string {
	s := fmt.Sprintf("epoch %d: prepare %v, commit %v, %d B shipped",
		r.Epoch, r.PrepareWall.Round(time.Microsecond), r.CommitWall.Round(time.Microsecond), r.BytesShipped)
	if r.ChunksShipped > 0 {
		s += fmt.Sprintf(" in %d chunks", r.ChunksShipped)
	}
	if r.RPCRetries > 0 {
		s += fmt.Sprintf(", %d rpc retries", r.RPCRetries)
	}
	if r.Aborted {
		s += " [aborted]"
	}
	if len(r.DeadDuring) > 0 {
		s += fmt.Sprintf(" [nodes %v died in commit]", r.DeadDuring)
	}
	return s
}

// PartialCommitError reports a checkpoint round whose commit phase lost
// nodes. The round still committed — the epoch advanced, and the named
// nodes were declared dead — because a commit cannot be rolled back once
// any node has applied it (the cluster-wide invariant is: a round that
// enters the commit phase always completes, and committers that stay
// unreachable through the retry budget are treated as node failures).
// The caller should run RecoverNodes over Nodes to restore redundancy.
type PartialCommitError struct {
	Epoch uint64 // the epoch that was committed despite the losses
	Nodes []int  // nodes declared dead during commit
}

// Error implements error.
func (e *PartialCommitError) Error() string {
	return fmt.Sprintf("runtime: epoch %d committed, but nodes %v failed commit and were declared dead (recovery required)",
		e.Epoch, e.Nodes)
}

// CasualtyNodes satisfies the service layer's CasualtyError classification:
// the reconciler sees this error, knows the epoch advanced anyway, and drives
// recovery over the named nodes before calling the request converged.
func (e *PartialCommitError) CasualtyNodes() []int {
	return append([]int(nil), e.Nodes...)
}
