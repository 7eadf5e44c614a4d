// Distributed: the DVDC protocol over real TCP sockets. Six node daemons
// start on loopback, a coordinator assigns the layout, drives workload and
// two-phase checkpoint rounds (deltas really cross sockets to parity
// peers), then one daemon is killed and the coordinator reconstructs its
// VMs from survivor images plus parity on the remaining nodes.
package main

import (
	"fmt"
	"log"

	"dvdc"
	"dvdc/internal/runtime"
)

func main() {
	// Spin up six node daemons (in one process here; cmd/dvdcnode runs the
	// same daemon standalone).
	const nodes = 6
	daemons := make([]*runtime.Node, nodes)
	addrs := map[int]string{}
	for i := range daemons {
		n, err := dvdc.NewNode("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		daemons[i] = n
		addrs[i] = n.Addr()
		fmt.Printf("node %d listening on %s\n", i, n.Addr())
	}
	defer func() {
		for _, d := range daemons {
			d.Close()
		}
	}()

	// Groups of 3 + parity on 6 nodes: spare nodes keep recovery orthogonal.
	layout, err := dvdc.NewDVDCLayoutGroups(nodes, 1, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	coord, err := dvdc.NewCoordinator(layout, addrs, 64, 4096, 42)
	if err != nil {
		log.Fatal(err)
	}
	defer coord.Close()
	if err := coord.Setup(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("configured: %d VMs in %d groups across %d nodes\n\n",
		len(layout.VMs), len(layout.Groups), nodes)

	for round := 1; round <= 3; round++ {
		if err := coord.Step(150); err != nil {
			log.Fatal(err)
		}
		if err := coord.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("round %d: two-phase checkpoint committed (epoch %d)\n", round, coord.Epoch())
	}
	committed, err := coord.Checksums()
	if err != nil {
		log.Fatal(err)
	}

	// Kill node 1 for real: its TCP server goes away mid-cluster.
	fmt.Println("\nkilling node 1...")
	daemons[1].Close()
	plan, err := coord.RecoverNodes(1)
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range plan.Steps {
		fmt.Printf("  %-14s group %d -> node %d %s\n", s.Kind, s.Group, s.TargetNode, s.VM)
	}
	after, err := coord.Checksums()
	if err != nil {
		log.Fatal(err)
	}
	ok := 0
	for vmName, want := range committed {
		if after[vmName] == want {
			ok++
		}
	}
	fmt.Printf("recovered: %d/%d VM states verified bit-exact across the wire\n", ok, len(committed))

	// The cluster keeps checkpointing on the surviving five nodes.
	if err := coord.Step(100); err != nil {
		log.Fatal(err)
	}
	if err := coord.Checkpoint(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("post-recovery checkpoint committed (epoch %d)\n", coord.Epoch())
}
