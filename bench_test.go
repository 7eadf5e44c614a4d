package dvdc

// One benchmark per evaluation artifact (see DESIGN.md's experiment index),
// plus micro-benchmarks of the performance-critical kernels. The experiment
// benchmarks measure the cost of regenerating the artifact; their value is
// that `go test -bench=.` reproduces every figure/table end to end.

import (
	"testing"

	"dvdc/internal/core"
	"dvdc/internal/experiments"
	"dvdc/internal/failure"
	"dvdc/internal/parity"
	"dvdc/internal/vm"
)

// benchParams shrinks Monte-Carlo counts so a full -bench=. pass stays
// tractable while still regenerating every artifact.
func benchParams() experiments.Params {
	p := experiments.Default()
	p.SweepPoints = 60
	p.MCRuns = 8
	return p
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	p := benchParams()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, p)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Text) == 0 {
			b.Fatal("empty result")
		}
	}
}

// BenchmarkFigure5 regenerates Fig. 5 (E1): the diskless vs disk-full
// interval sweep with optimal-interval search.
func BenchmarkFigure5(b *testing.B) { benchExperiment(b, "E1") }

// BenchmarkMonteCarloModel regenerates E2: event simulation vs the
// corrected Section V equations.
func BenchmarkMonteCarloModel(b *testing.B) { benchExperiment(b, "E2") }

// BenchmarkArchitectureSurvival regenerates E3: byte-real fault injection
// across the Fig. 1/3/4 architectures.
func BenchmarkArchitectureSurvival(b *testing.B) { benchExperiment(b, "E3") }

// BenchmarkParityScaling regenerates E4: parity work distribution vs
// cluster size and the XOR kernel measurement.
func BenchmarkParityScaling(b *testing.B) { benchExperiment(b, "E4") }

// BenchmarkMigration regenerates E5: pre-copy downtime sweep and the
// page-hash dedup ablation.
func BenchmarkMigration(b *testing.B) { benchExperiment(b, "E5") }

// BenchmarkScalingSweep regenerates E6: overhead at optimal interval vs
// cluster size.
func BenchmarkScalingSweep(b *testing.B) { benchExperiment(b, "E6") }

// BenchmarkRemusComparison regenerates E7: DVDC vs Remus.
func BenchmarkRemusComparison(b *testing.B) { benchExperiment(b, "E7") }

// BenchmarkDoubleErasure regenerates E8: RDP/RS vs XOR.
func BenchmarkDoubleErasure(b *testing.B) { benchExperiment(b, "E8") }

// BenchmarkLatencyOverhead regenerates E9: overhead vs latency.
func BenchmarkLatencyOverhead(b *testing.B) { benchExperiment(b, "E9") }

// BenchmarkRecovery regenerates E10: recovery-time breakdown.
func BenchmarkRecovery(b *testing.B) { benchExperiment(b, "E10") }

// BenchmarkCheckpointVariants regenerates E11: full vs incremental vs
// forked vs compressed payloads.
func BenchmarkCheckpointVariants(b *testing.B) { benchExperiment(b, "E11") }

// BenchmarkEndToEnd regenerates E12: the full-stack simulated 2-day job.
func BenchmarkEndToEnd(b *testing.B) { benchExperiment(b, "E12") }

// BenchmarkWeibullSensitivity regenerates E13: the Poisson-assumption
// sensitivity analysis.
func BenchmarkWeibullSensitivity(b *testing.B) { benchExperiment(b, "E13") }

// BenchmarkAblations regenerates E14: adaptive intervals + compression.
func BenchmarkAblations(b *testing.B) { benchExperiment(b, "E14") }

// BenchmarkProactiveEvacuation regenerates E15: prediction-driven live
// migration vs reactive rollback.
func BenchmarkProactiveEvacuation(b *testing.B) { benchExperiment(b, "E15") }

// BenchmarkUtilization regenerates E16: equal-hardware-budget comparison of
// DVDC against dedicated-checkpoint-node architectures.
func BenchmarkUtilization(b *testing.B) { benchExperiment(b, "E16") }

// BenchmarkNoCheckpointBaseline regenerates E17: Eq. 1's restart blowup vs
// the checkpointed Eq. 3.
func BenchmarkNoCheckpointBaseline(b *testing.B) { benchExperiment(b, "E17") }

// BenchmarkToleranceSweep regenerates E18: overhead vs parity tolerance.
func BenchmarkToleranceSweep(b *testing.B) { benchExperiment(b, "E18") }

// BenchmarkDurability regenerates E19: MTTDL and mission loss probability.
func BenchmarkDurability(b *testing.B) { benchExperiment(b, "E19") }

// BenchmarkHardwareSensitivity regenerates E20: Fig. 5 across hardware
// generations.
func BenchmarkHardwareSensitivity(b *testing.B) { benchExperiment(b, "E20") }

// ---- kernel micro-benchmarks ----

// BenchmarkXOR1MiB measures the parity kernel on a checkpoint-sized block.
func BenchmarkXOR1MiB(b *testing.B) {
	dst := make([]byte, 1<<20)
	src := make([]byte, 1<<20)
	for i := range src {
		src[i] = byte(i)
	}
	b.SetBytes(1 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := parity.XORInto(dst, src); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRDPEncode measures RDP(7) encoding of six 1 MiB-class blocks.
func BenchmarkRDPEncode(b *testing.B) {
	coder, err := parity.NewRDP(7)
	if err != nil {
		b.Fatal(err)
	}
	n := (1 << 20) / 6 * 6
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, n)
		for j := range data[i] {
			data[i][j] = byte(i * j)
		}
	}
	b.SetBytes(int64(6 * n))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := coder.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRSEncode62 measures RS(6,2) encoding.
func BenchmarkRSEncode62(b *testing.B) {
	coder, err := parity.NewRS(6, 2)
	if err != nil {
		b.Fatal(err)
	}
	data := make([][]byte, 6)
	for i := range data {
		data[i] = make([]byte, 1<<20)
		for j := range data[i] {
			data[i][j] = byte(i + j)
		}
	}
	b.SetBytes(6 << 20)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := coder.Encode(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCheckpointRound measures one coordinated in-process DVDC round
// on the paper's 12-VM cluster with 4 MiB guests: the runtime's two-phase
// round over the in-memory network, groups prepared in parallel — the
// in-process analogue of Sec. IV-B's distributed parity argument.
func BenchmarkCheckpointRound(b *testing.B) {
	layout, err := PaperLayout()
	if err != nil {
		b.Fatal(err)
	}
	cl, err := NewCluster(layout, 1024, 4096)
	if err != nil {
		b.Fatal(err)
	}
	defer cl.Close()
	workloads := map[string]*vm.Uniform{}
	for i, v := range layout.VMs {
		workloads[v.Name] = vm.NewUniform(int64(i))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		for name, w := range workloads {
			m, _ := cl.Machine(name)
			vm.Run(w, m, 2000)
		}
		b.StartTimer()
		if err := cl.Checkpoint(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFailNode measures the in-process recovery of one node on the
// paper's 12-VM cluster with 1 MiB guests: after one churned and committed
// round, node 0 is killed and RecoverNodes(0) runs on a fresh cluster per
// iteration — every damaged group rebuilt from k committed shards, the
// survivors rolled back, the layout updated. Building the cluster and its
// round are not timed.
func BenchmarkFailNode(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		layout, err := PaperLayout()
		if err != nil {
			b.Fatal(err)
		}
		cl, err := NewCluster(layout, 256, 4096)
		if err != nil {
			b.Fatal(err)
		}
		for j, v := range layout.VMs {
			m, _ := cl.Machine(v.Name)
			vm.Run(vm.NewUniform(int64(j)), m, 2000)
		}
		if err := cl.Checkpoint(); err != nil {
			b.Fatal(err)
		}
		cl.Kill(0)
		b.StartTimer()
		if _, err := cl.RecoverNodes(0); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		cl.Close()
	}
}

// BenchmarkEventEngine measures the discrete-event engine simulating a
// 2-day job with ~1200 checkpoints and Poisson failures.
func BenchmarkEventEngine(b *testing.B) {
	scheme, sched := benchScheme(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.Run(core.Config{
			JobSeconds: 2 * 24 * 3600, Interval: 140, DetectSec: 1,
			Schedule: sched, Scheme: scheme,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Checkpoints == 0 {
			b.Fatal("no checkpoints")
		}
	}
}

func benchScheme(b *testing.B) (core.Scheme, *failure.NodeSchedule) {
	b.Helper()
	layout, err := PaperLayout()
	if err != nil {
		b.Fatal(err)
	}
	plat, err := DefaultPlatform(layout.Nodes)
	if err != nil {
		b.Fatal(err)
	}
	spec := vm.Spec{
		Name:       "bench",
		ImageBytes: 1 << 30,
		Dirty:      vm.SaturatingDirty{WriteRate: 4 << 20, WSSBytes: 32 << 20},
	}
	scheme, err := NewDVDCScheme(plat, layout, spec)
	if err != nil {
		b.Fatal(err)
	}
	sched, err := failure.NewPoissonNodes(layout.Nodes, 4*3*3600, 99)
	if err != nil {
		b.Fatal(err)
	}
	return scheme, sched
}
