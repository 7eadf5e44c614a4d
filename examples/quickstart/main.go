// Quickstart: build the paper's 4-node / 12-VM DVDC cluster in-process,
// run workloads, take coordinated diskless checkpoints, kill a physical
// node, and watch the lost VMs come back bit-exact from parity. It exits
// non-zero if any VM or parity block disagrees with the committed state.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"

	"dvdc"
	"dvdc/internal/vm"
)

func main() {
	// The exact Fig. 4 configuration: 4 nodes, 12 VMs in 4 orthogonal RAID
	// groups of 3, parity rotated across all nodes.
	layout, err := dvdc.PaperLayout()
	if err != nil {
		log.Fatal(err)
	}
	cl, err := dvdc.NewCluster(layout, 256, 4096) // 1 MiB VMs
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("cluster: %d nodes, %d VMs, %d RAID groups (%s)\n",
		layout.Nodes, len(layout.VMs), len(layout.Groups), layout.Arch)

	// Run a Zipf-skewed guest workload on every VM and checkpoint twice.
	var deltaBytes int64
	for round := 1; round <= 2; round++ {
		for i, v := range cl.Layout().VMs {
			m, err := cl.Machine(v.Name)
			if err != nil {
				log.Fatal(err)
			}
			w, err := vm.NewZipf(m.NumPages(), 1.3, int64(i))
			if err != nil {
				log.Fatal(err)
			}
			vm.Run(w, m, 2000)
		}
		if err := cl.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		deltaBytes += cl.RoundStats().DeltaRawBytes
		fmt.Printf("checkpoint round %d committed (delta bytes so far: %d)\n", round, deltaBytes)
	}

	// Remember the committed state of every VM.
	committed := map[string][]byte{}
	for _, v := range cl.Layout().VMs {
		m, _ := cl.Machine(v.Name)
		committed[v.Name] = m.Image()
	}

	// Node 2 bursts into flames: its three VMs and one parity block vanish.
	cl.Kill(2)
	plan, err := cl.RecoverNodes(2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 2 failed: lost VMs %v (recovery degraded=%v)\n", plan.VMs(), plan.Degraded)
	for _, s := range plan.Steps {
		fmt.Printf("  %-14s group %d -> node %d %s\n", s.Kind, s.Group, s.TargetNode, s.VM)
	}

	// Every VM — reconstructed or rolled back — must hold the committed state.
	ok := 0
	for _, v := range cl.Layout().VMs {
		m, err := cl.Machine(v.Name)
		if err == nil && bytes.Equal(m.Image(), committed[v.Name]) {
			ok++
		} else {
			fmt.Printf("  MISMATCH: %s\n", v.Name)
		}
	}
	fmt.Printf("verified %d/%d VMs at the committed checkpoint; parity: ", ok, len(committed))
	perr := cl.VerifyParity()
	if perr != nil {
		fmt.Println(perr)
	} else {
		fmt.Println("consistent")
	}
	if ok != len(committed) || perr != nil {
		os.Exit(1)
	}
}
