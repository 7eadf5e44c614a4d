package main

import (
	"fmt"

	"dvdc/internal/cluster"
	"dvdc/internal/runtime"
)

const (
	pageSize     = 4096
	window       = 3  // qw window: consecutive rounds, recovery cycles or replay repetitions
	heapBlocks   = 10 // the timed rounds are cut into this many blocks; the heap is sampled at their boundaries
	setupSamples = 5  // warm bring-ups measured (one more, cold, is discarded first)

	// cycleSteps caps the guest writes per VM in the untimed round that ends a
	// recovery cycle. That round exists so the next recovery rebuilds state,
	// and uses parity, that changed since the last one; a few hundred dirty
	// pages per VM do that, and a full dense round there would cost a tenth of
	// the run's time budget for nothing that is measured.
	cycleSteps = 256

	// refSeconds is the -seconds value the per-workload round and cycle
	// counts below are written for: on the 2-vCPU dev host the timed rounds
	// plus the timed recovery cycles of every workload then take about that
	// long. Other -seconds values scale the counts linearly; the work done is
	// a function of (workload, seconds, seed) only, never of how fast the
	// host happens to be, so count metrics repeat exactly.
	refSeconds = 20

	defaultSeed = 20120521
)

// spec is one workload: a cluster shape, a guest write pattern, and how much
// of it to run. Sizes never shrink with -seconds; only counts do.
type spec struct {
	name, why string

	layout    func() (*cluster.Layout, error)
	pages     int    // 4 KiB pages per VM
	kind      string // runtime workload kind
	dedup     bool
	steps     uint64  // page writes per VM per round
	warmup    int     // untimed rounds before the timed ones
	rounds    int     // timed rounds at refSeconds
	cycles    int     // timed recovery cycles at refSeconds (one more is discarded first)
	victims   [][]int // nodes killed together in cycle c: victims[c%len]; a fixed schedule, never rotated over all nodes
	nonCompar bool    // -quick: tiny sizes, numbers not comparable with anything
}

func rs2Layout() (*cluster.Layout, error) { return cluster.BuildDistributedGroups(7, 1, 2, 3) }

// workloads are listed in the order -workload all runs them. The why lines
// are the short form of benchmark/README.md's per-workload paragraphs and
// must match BENCHMARK.json.
var workloads = []spec{
	{
		name:   "dense-xor",
		why:    "77% of a 192 MiB guest dirtied per round: capture, encode, socket, XOR fold and range commit do the work; control plane is noise",
		layout: cluster.Paper12VM, pages: 4096, kind: runtime.WorkloadUniform,
		steps: 6000, warmup: 2, rounds: 40, cycles: 9, victims: [][]int{{1}},
	},
	{
		name:   "sparse-xor",
		why:    "1.5% dirtied per round: per-round fixed cost (fan-out, RPC round trips, single-page chunk framing, range coalescing) dominates; kernels idle",
		layout: cluster.Paper12VM, pages: 4096, kind: runtime.WorkloadUniform,
		steps: 64, warmup: 20, rounds: 1500, cycles: 9, victims: [][]int{{1}},
	},
	{
		name:   "rewrite-dedup",
		why:    "77% re-dirtied but 1/8 with new content, dedup on: page hashing and cache lookups replace socket+fold; only workload where wire bytes can move",
		layout: cluster.Paper12VM, pages: 4096, kind: runtime.WorkloadRewrite, dedup: true,
		steps: 6000, warmup: 2, rounds: 30, cycles: 9, victims: [][]int{{1}},
	},
	{
		name:   "recover-rs2",
		why:    "7 nodes, RS m=2, two nodes killed together: read-chunk, reassemble, GF(256) decode and install do the work; folds use GF kernels, not XOR",
		layout: rs2Layout, pages: 2048, kind: runtime.WorkloadUniform,
		steps: 3000, warmup: 2, rounds: 20, cycles: 9, victims: [][]int{{0, 1}, {5, 6}},
	},
}

func findWorkload(name string) (spec, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q (try -list)", name)
}

// sized returns the spec with its counts scaled from refSeconds to seconds.
// Rounds stay a multiple of heapBlocks and cycles of the qw window, and
// neither drops below what qw needs to have several windows to choose from.
func (s spec) sized(seconds int) spec {
	scale := func(n, unit, floor int) int {
		units := (n*seconds + unit*refSeconds/2) / (unit * refSeconds)
		return max(unit*units, floor)
	}
	s.rounds = scale(s.rounds, heapBlocks, 2*heapBlocks)
	s.cycles = scale(s.cycles, window, 2*window)
	return s
}

// quick shrinks a spec to smoke-test size: 64-page images, the minimum
// counts. The result is marked non-comparable in every output.
func (s spec) quick() spec {
	s.pages = 64
	s.steps = min(s.steps, 40)
	s.warmup = 1
	s.rounds = 2 * heapBlocks
	s.cycles = 2 * window
	s.nonCompar = true
	return s
}

// imageBytes is the guest memory the cluster protects (VMs x pages x page).
func (s spec) imageBytes(l *cluster.Layout) int64 {
	return int64(len(l.VMs)) * int64(s.pages) * pageSize
}
