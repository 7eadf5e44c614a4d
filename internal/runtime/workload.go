package runtime

import "dvdc/internal/vm"

// Workload kind names a VMConfig can carry. The node and the shadow model
// both build workloads through newWorkload, so a kind string plus a seed
// fully determines the write stream on either side.
const (
	WorkloadUniform = "uniform"
	WorkloadRewrite = "rewrite"
)

// rewriteChangeFrac is the content-change probability of the rewrite
// workload: ~1 in 8 writes stores new bytes, the rest re-dirty pages with
// identical content — the regime NodeConfig.Dedup's unchanged-page skip
// targets.
const rewriteChangeFrac = 0.125

// newWorkload builds the workload for a kind string ("" = uniform).
func newWorkload(kind string, seed int64) vm.Workload {
	switch kind {
	case WorkloadRewrite:
		return vm.NewRewrite(seed, rewriteChangeFrac)
	default:
		return vm.NewUniform(seed)
	}
}
