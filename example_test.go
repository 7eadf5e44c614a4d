package dvdc_test

// Godoc-visible, executable usage examples. Each prints deterministic
// output and runs as part of the test suite.

import (
	"bytes"
	"fmt"
	"log"

	"dvdc"
	"dvdc/internal/vm"
)

// Example builds the paper's 4-node / 12-VM cluster, checkpoints it
// disklessly, kills a physical node, and verifies every VM returns to the
// committed state.
func Example() {
	layout, err := dvdc.PaperLayout()
	if err != nil {
		log.Fatal(err)
	}
	cl, err := dvdc.NewCluster(layout, 64, 4096)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	// Dirty the guests, then take a coordinated diskless checkpoint.
	for i, v := range layout.VMs {
		m, _ := cl.Machine(v.Name)
		vm.Run(vm.NewUniform(int64(i)), m, 200)
	}
	if err := cl.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	committed := map[string][]byte{}
	for _, v := range layout.VMs {
		m, _ := cl.Machine(v.Name)
		committed[v.Name] = m.Image()
	}

	// Node 1 fails: 3 VMs and 1 parity block are gone.
	cl.Kill(1)
	plan, err := cl.RecoverNodes(1)
	if err != nil {
		log.Fatal(err)
	}
	ok := 0
	for _, v := range layout.VMs {
		m, _ := cl.Machine(v.Name)
		if bytes.Equal(m.Image(), committed[v.Name]) {
			ok++
		}
	}
	fmt.Printf("lost %d VMs, verified %d/12 at the committed checkpoint\n", len(plan.VMs()), ok)
	// Output:
	// lost 3 VMs, verified 12/12 at the committed checkpoint
}

// ExampleModel evaluates the corrected Section V equations at the paper's
// parameters.
func ExampleModel() {
	m := dvdc.Model{
		Lambda: 1.0 / (3 * 3600), // MTBF 3 h
		T:      2 * 24 * 3600,    // 2-day job
		Repair: 60,
	}
	e, err := m.ExpectedWithCheckpoint(600, 30) // T_int = 10 min, T_ov = 30 s
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("expected completion ratio: %.3f\n", e/m.T)
	// Output:
	// expected completion ratio: 1.087
}

// ExampleOptimalInterval finds the X mark of Fig. 5's diskless curve.
func ExampleOptimalInterval() {
	layout, err := dvdc.PaperLayout()
	if err != nil {
		log.Fatal(err)
	}
	plat, err := dvdc.DefaultPlatform(layout.Nodes)
	if err != nil {
		log.Fatal(err)
	}
	spec := vm.Spec{
		Name:       "hpc-guest",
		ImageBytes: 2 << 30,
		Dirty:      vm.SaturatingDirty{WriteRate: 4 << 20, WSSBytes: 32 << 20},
	}
	om, err := dvdc.NewDisklessOverheads(plat, layout, spec)
	if err != nil {
		log.Fatal(err)
	}
	m := dvdc.Model{Lambda: 1.0 / (3 * 3600), T: 2 * 24 * 3600, Repair: 60}
	opt, err := dvdc.OptimalInterval(m, om, 5, m.T/4)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("optimal interval ~%d s, overhead ratio %.3f\n",
		int(opt.Interval/10)*10, opt.Ratio)
	// Output:
	// optimal interval ~130 s, overhead ratio 1.019
}

// ExampleNewDVDCLayoutGroups shows the orthogonality invariant: each RAID
// group places every member and parity block on a distinct physical node.
func ExampleNewDVDCLayoutGroups() {
	layout, err := dvdc.NewDVDCLayoutGroups(6, 1, 2, 3)
	if err != nil {
		log.Fatal(err)
	}
	g := layout.Groups[0]
	fmt.Printf("group 0: %d members, %d parity blocks, survives double failure: %v\n",
		len(g.Members), len(g.ParityNodes), layout.Survives(0, 1))
	// Output:
	// group 0: 3 members, 2 parity blocks, survives double failure: true
}
