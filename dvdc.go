// Package dvdc is the public face of this repository: a from-scratch
// implementation of Distributed Virtual Diskless Checkpointing (Eckart, He,
// Wu, Aderholdt, Han, Scott — IPDPS workshops 2012), the scheme that treats
// virtual-machine checkpoints as RAID data elements, partitions VMs into
// orthogonal RAID groups across physical nodes, and rotates parity
// responsibility RAID-5 style so a virtualized cluster checkpoints entirely
// in memory — no disk, no dedicated checkpoint hardware.
//
// The facade re-exports the layered internals:
//
//   - Layouts (orthogonal placement, Figs. 1/3/4): NewFirstShotLayout,
//     NewDedicatedLayout, NewDVDCLayout, PaperLayout.
//   - The byte-real protocol: NewCluster runs the distributed runtime in
//     process, over an in-memory network: real paged VM memories with
//     per-group parity keepers; checkpoint it, kill nodes, recover.
//   - The analytical model of Section V (corrected): Model, Sweep,
//     OptimalInterval, plus the two overhead models of Fig. 5.
//   - The event simulation: Simulate runs a whole job under Poisson node
//     failures with a scheme's real overhead and recovery costs.
//   - The distributed runtime: NewNode / NewCoordinator speak the DVDC
//     protocol over TCP (see cmd/dvdcnode and cmd/dvdcctl).
//   - The evaluation harness: Experiment regenerates each of the paper's
//     figures and the corroborating tables (see EXPERIMENTS.md).
package dvdc

import (
	"dvdc/internal/analytic"
	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/experiments"
	"dvdc/internal/failure"
	"dvdc/internal/runtime"
	"dvdc/internal/vm"
)

// Layout construction (the paper's three architectures).

// NewFirstShotLayout builds the Fig. 1 architecture: one VM per compute
// node plus a dedicated parity node, a single RAID group.
func NewFirstShotLayout(computeNodes int) (*cluster.Layout, error) {
	return cluster.BuildFirstShot(computeNodes)
}

// NewDedicatedLayout builds the Fig. 3 architecture: orthogonal groups with
// all parity on one dedicated checkpoint node.
func NewDedicatedLayout(computeNodes, vmsPerNode int) (*cluster.Layout, error) {
	return cluster.BuildDedicated(computeNodes, vmsPerNode)
}

// NewDVDCLayout builds the Fig. 4 architecture: orthogonal groups with
// parity rotated across all nodes (stacks scales VMs per node).
func NewDVDCLayout(nodes, stacks, tolerance int) (*cluster.Layout, error) {
	return cluster.BuildDistributed(nodes, stacks, tolerance)
}

// NewDVDCLayoutGroups is NewDVDCLayout with an explicit group size; smaller
// groups leave spare nodes so recovery can preserve orthogonality.
func NewDVDCLayoutGroups(nodes, stacks, tolerance, groupSize int) (*cluster.Layout, error) {
	return cluster.BuildDistributedGroups(nodes, stacks, tolerance, groupSize)
}

// PaperLayout is the exact 4-node / 12-VM configuration of Figs. 4 and 5.
func PaperLayout() (*cluster.Layout, error) { return cluster.Paper12VM() }

// NewCluster builds a byte-real DVDC cluster in this process on a layout:
// every VM is a paged memory image, every group has one parity keeper per
// parity block (XOR at tolerance 1, GF(256) RS beyond) on its layout-assigned
// node. It is the distributed runtime itself, a node daemon per node and the
// coordinator, over an in-memory network instead of TCP. Run guests on
// Machine, then use the runtime's operations: Checkpoint, Kill and
// RecoverNodes, Restart and Repair, Rebalance, Evacuate, VerifyParity. Close
// stops it.
func NewCluster(layout *cluster.Layout, pagesPerVM, pageSize int) (*runtime.Cluster, error) {
	return runtime.NewInProcess(layout, pagesPerVM, pageSize)
}

// Model is the corrected Section V expected-completion-time model.
type Model = analytic.Model

// OverheadModel yields a scheme's checkpoint overhead and latency for a
// candidate interval (see analytic.Diskless and analytic.Diskfull).
type OverheadModel = analytic.OverheadModel

// Sweep evaluates the expected-time ratio across checkpoint intervals: the
// data behind Fig. 5's curves.
func Sweep(m Model, om OverheadModel, lo, hi float64, points int) ([]analytic.SweepPoint, error) {
	return analytic.Sweep(m, om, lo, hi, points)
}

// OptimalInterval finds the checkpoint interval minimizing expected
// completion time (the X marks of Fig. 5).
func OptimalInterval(m Model, om OverheadModel, lo, hi float64) (analytic.Optimum, error) {
	return analytic.OptimalInterval(m, om, lo, hi)
}

// NewDisklessOverheads builds DVDC's Fig. 5 overhead model for a layout.
func NewDisklessOverheads(p analytic.Platform, layout *cluster.Layout, spec vm.Spec) (*analytic.Diskless, error) {
	return analytic.NewDiskless(p, layout, spec)
}

// Simulate runs one full job through the discrete-event engine.
func Simulate(cfg core.Config) (core.Result, error) { return core.Run(cfg) }

// NewPoissonFailures builds the per-node Poisson failure schedule the
// paper's analysis assumes.
func NewPoissonFailures(nodes int, mtbfSeconds float64, seed int64) (*failure.NodeSchedule, error) {
	return failure.NewPoissonNodes(nodes, mtbfSeconds, seed)
}

// NewDVDCScheme builds DVDC's timing model (overhead + recovery) for the
// event engine.
func NewDVDCScheme(p analytic.Platform, layout *cluster.Layout, spec vm.Spec) (*core.DVDCScheme, error) {
	return core.NewDVDCScheme(p, layout, spec)
}

// DefaultPlatform returns era-typical hardware constants (GigE fabric,
// memory-speed capture and XOR, 40 ms base overhead).
func DefaultPlatform(nodes int) (analytic.Platform, error) {
	return analytic.DefaultPlatform(nodes)
}

// Distributed runtime.

// NewNode starts a DVDC node daemon on addr.
func NewNode(addr string) (*runtime.Node, error) { return runtime.NewNode(addr) }

// NewCoordinator drives node daemons through setup, checkpoint rounds, and
// recovery.
func NewCoordinator(layout *cluster.Layout, addrs map[int]string, pages, pageSize int, seed int64) (*runtime.Coordinator, error) {
	return runtime.NewCoordinator(layout, addrs, pages, pageSize, seed)
}

// Evaluation harness.

// ExperimentIDs lists the reproducible artifacts (E1 = Fig. 5, ...).
func ExperimentIDs() []string { return experiments.IDs() }

// ExperimentParams returns the paper's default parameterization.
func ExperimentParams() experiments.Params { return experiments.Default() }

// Experiment regenerates one evaluation artifact.
func Experiment(id string, p experiments.Params) (*experiments.Result, error) {
	return experiments.Run(id, p)
}
