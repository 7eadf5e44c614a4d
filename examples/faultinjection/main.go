// Faultinjection: a long-horizon survival demo. A DVDC cluster with spare
// nodes endures a storm of sequential node failures: after each failure the
// cluster recovers, the failed node is repaired and rejoins, and execution
// continues. State integrity is verified after every cycle, and the demo
// exits non-zero on the first VM or parity block that disagrees with the
// committed state.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math/rand"

	"dvdc"
	"dvdc/internal/vm"
)

func main() {
	// 8 nodes, groups of 4 + parity: three spare nodes per group, so
	// recovery preserves orthogonality and the storm can run indefinitely.
	layoutS, err := dvdc.NewDVDCLayoutGroups(8, 1, 1, 4)
	if err != nil {
		log.Fatal(err)
	}
	cl, err := dvdc.NewCluster(layoutS, 128, 4096)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	fmt.Printf("cluster: %d nodes, %d VMs, groups of %d\n",
		layoutS.Nodes, len(layoutS.VMs), len(layoutS.Groups[0].Members))

	rng := rand.New(rand.NewSource(7))
	survived, rebuilt, rehomed, rollbacks := 0, 0, 0, 0
	var shipped int64
	for cycle := 1; cycle <= 12; cycle++ {
		// Work + checkpoint.
		for i, v := range cl.Layout().VMs {
			m, err := cl.Machine(v.Name)
			if err != nil {
				log.Fatal(err)
			}
			w := vm.NewUniform(int64(cycle*100 + i))
			vm.Run(w, m, 500)
		}
		if err := cl.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		shipped += cl.RoundStats().DeltaRawBytes
		committed := map[string][]byte{}
		for _, v := range cl.Layout().VMs {
			m, _ := cl.Machine(v.Name)
			committed[v.Name] = m.Image()
		}

		// Random node failure + recovery + repair.
		victim := rng.Intn(layoutS.Nodes)
		cl.Kill(victim)
		plan, err := cl.RecoverNodes(victim)
		if err != nil {
			fmt.Printf("cycle %2d: node %d unrecoverable (%v) — stopping storm\n", cycle, victim, err)
			break
		}
		lost := len(plan.VMs())
		rebuilt, rehomed = rebuilt+lost, rehomed+len(plan.Steps)-lost
		rollbacks += len(committed) - lost
		bad := 0
		for _, v := range cl.Layout().VMs {
			m, err := cl.Machine(v.Name)
			if err != nil || !bytes.Equal(m.Image(), committed[v.Name]) {
				bad++
			}
		}
		if err := cl.VerifyParity(); err != nil {
			log.Fatalf("cycle %d: parity corrupt: %v", cycle, err)
		}
		if err := cl.Start(victim); err != nil {
			log.Fatal(err)
		}
		if err := cl.Repair(victim); err != nil {
			log.Fatal(err)
		}
		status := "orthogonal"
		if plan.Degraded {
			status = "degraded"
		}
		fmt.Printf("cycle %2d: node %d died, %d VMs rebuilt (%s), %d/%d states verified\n",
			cycle, victim, lost, status, len(committed)-bad, len(committed))
		if bad > 0 {
			log.Fatalf("cycle %d: %d VMs lost their committed state", cycle, bad)
		}
		survived++
	}
	fmt.Printf("\nsurvived %d failure cycles: %d reconstructions, %d parity rebuilds, %d rollbacks, %.1f MiB deltas\n",
		survived, rebuilt, rehomed, rollbacks, float64(shipped)/(1<<20))

	paperStorm()
}

// paperStorm runs the same storm on the paper's tight 4-node layout, where
// every recovery is necessarily degraded (no spare node) — but repairing the
// node and REBALANCING (moving the co-located VMs back) restores full
// protection each cycle, so the storm never accumulates risk.
func paperStorm() {
	fmt.Println("\n--- paper 4-node layout with repair + rebalance ---")
	layout, err := dvdc.PaperLayout()
	if err != nil {
		log.Fatal(err)
	}
	cl, err := dvdc.NewCluster(layout, 128, 4096)
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()
	rng := rand.New(rand.NewSource(13))
	for cycle := 1; cycle <= 8; cycle++ {
		for i, v := range cl.Layout().VMs {
			m, err := cl.Machine(v.Name)
			if err != nil {
				log.Fatal(err)
			}
			vm.Run(vm.NewUniform(int64(cycle*1000+i)), m, 400)
		}
		if err := cl.Checkpoint(); err != nil {
			log.Fatal(err)
		}
		victim := rng.Intn(4)
		cl.Kill(victim)
		plan, err := cl.RecoverNodes(victim)
		if err != nil {
			log.Fatalf("cycle %d: %v", cycle, err)
		}
		if err := cl.Start(victim); err != nil {
			log.Fatal(err)
		}
		if err := cl.Repair(victim); err != nil {
			log.Fatal(err)
		}
		rb, err := cl.Rebalance()
		if err != nil {
			log.Fatalf("cycle %d rebalance: %v", cycle, err)
		}
		if err := cl.Layout().Validate(); err != nil {
			log.Fatalf("cycle %d: orthogonality not restored: %v", cycle, err)
		}
		if err := cl.VerifyParity(); err != nil {
			log.Fatalf("cycle %d: parity corrupt: %v", cycle, err)
		}
		fmt.Printf("cycle %d: node %d died (degraded=%v), repaired, %d rebalance moves, orthogonality restored\n",
			cycle, victim, plan.Degraded, len(rb.Steps))
	}
	fmt.Println("the tight layout survives an open-ended storm once rebalance closes each cycle")
}
