package experiments

import (
	"strings"
	"time"

	"dvdc/internal/analytic"
	"dvdc/internal/cluster"
	"dvdc/internal/core"
	"dvdc/internal/diskfull"
	"dvdc/internal/metrics"
	"dvdc/internal/report"
	"dvdc/internal/runtime"
	"dvdc/internal/vm"
)

func init() {
	register("E10", "Recovery-time breakdown: rollback + reconstruction vs NAS refetch", runE10)
}

// runE10 measures the recovery path the Sec. VI comparison hinges on: DVDC
// must roll everyone back and run a parity reconstruction; the disk-full
// baseline must pull images back through the NAS. Both the timing model and
// a byte-real wall-clock measurement of the in-process recovery are shown.
func runE10(p Params) (*Result, error) {
	table := report.NewTable(
		"Modeled recovery time after one node failure (3 VMs lost)",
		"image size (MiB)", "DVDC reconstruct (s)", "disk-full local-rb (s)", "disk-full NAS-rb (s)")
	series := &metrics.Series{Label: "DVDC reconstruct (s)"}
	layout, err := cluster.BuildDistributed(p.Nodes, p.Stacks, 1)
	if err != nil {
		return nil, err
	}
	plat, err := analytic.DefaultPlatform(layout.Nodes)
	if err != nil {
		return nil, err
	}
	for _, mib := range []float64{64, 256, 1024, 4096} {
		spec := vm.Spec{
			Name:       "rec",
			ImageBytes: int64(mib * float64(1<<20)),
			Dirty:      vm.FullImageDirty{ImageBytes: mib * float64(1<<20)},
		}
		dv, err := core.NewDVDCScheme(plat, layout, spec)
		if err != nil {
			return nil, err
		}
		dvt, err := dv.RecoveryTime(0)
		if err != nil {
			return nil, err
		}
		dfLocal, err := diskfull.New(plat, p.nas(), len(layout.VMs), len(layout.VMs)/layout.Nodes, spec, false)
		if err != nil {
			return nil, err
		}
		dfLocal.LocalRollback = true
		a, err := dfLocal.RecoveryTime(0)
		if err != nil {
			return nil, err
		}
		dfNAS, err := diskfull.New(plat, p.nas(), len(layout.VMs), len(layout.VMs)/layout.Nodes, spec, false)
		if err != nil {
			return nil, err
		}
		b, err := dfNAS.RecoveryTime(0)
		if err != nil {
			return nil, err
		}
		table.AddRow(mib, dvt, a, b)
		series.Append(mib, dvt)
	}

	// Byte-real wall-clock of the full in-process recovery cycle.
	realTable := report.NewTable(
		"Byte-real in-process recovery (paper 4-node/12-VM layout)",
		"VM memory (MiB)", "checkpoint round (ms)", "fail+recover node 0 (ms)", "reconstructed VMs")
	for _, mib := range []int{1, 4, 16} {
		pages := mib * (1 << 20) / vm.DefaultPageSize
		l, err := cluster.Paper12VM()
		if err != nil {
			return nil, err
		}
		c, err := runtime.NewInProcess(l, pages, vm.DefaultPageSize)
		if err != nil {
			return nil, err
		}
		for i, v := range c.Layout().VMs {
			m, _ := c.Machine(v.Name)
			vm.Run(vm.NewUniform(int64(i)), m, pages/2)
		}
		start := time.Now()
		if err := c.Checkpoint(); err != nil {
			c.Close()
			return nil, err
		}
		ckptMs := time.Since(start).Seconds() * 1000
		start = time.Now()
		c.Kill(0)
		plan, err := c.RecoverNodes(0)
		recMs := time.Since(start).Seconds() * 1000
		c.Close()
		if err != nil {
			return nil, err
		}
		realTable.AddRow(mib, ckptMs, recMs, len(plan.VMs()))
	}

	var out strings.Builder
	out.WriteString(table.String())
	out.WriteString("\n")
	out.WriteString(realTable.String())
	out.WriteString("\nDVDC recovery is bounded by pulling groupSize images across the fabric; the\n")
	out.WriteString("baseline without local copies serializes the whole cluster behind the NAS.\n")
	return &Result{Text: out.String(), Series: []*metrics.Series{series}}, nil
}
