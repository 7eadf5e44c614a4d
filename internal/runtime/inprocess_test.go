package runtime

import (
	"fmt"
	"testing"

	"dvdc/internal/cluster"
	"dvdc/internal/core"
)

// TestRecoveryMatchesInProcessCluster fails nodes of the in-process cluster —
// the runtime over its in-memory network, as dvdc.NewCluster builds it — and
// holds its recovery to the oracles: after two committed rounds the guests
// run on past the last commit, the nodes are killed and recovered, and every
// VM's committed image and epoch must match the Shadow model, every parity
// block a keeper built from scratch over the shadow's images (oracleDiff),
// and every member and keeper the layout (VerifyParity) — before and after
// one more round on the recovered cluster. Cases: every single loss on the paper
// layout (m = 1) and every double loss on BuildDistributedGroups(7, 1, 2, 3)
// (m = 2).
func TestRecoveryMatchesInProcessCluster(t *testing.T) {
	rs2, err := cluster.BuildDistributedGroups(7, 1, 2, 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		layout *cluster.Layout
	}{{"xor-m1", paperLayout(t)}, {"rs-m2", rs2}} {
		var downs [][]int
		for a := 0; a < tc.layout.Nodes; a++ {
			if tc.layout.Tolerance == 1 {
				downs = append(downs, []int{a})
			}
			for b := a + 1; b < tc.layout.Nodes && tc.layout.Tolerance == 2; b++ {
				downs = append(downs, []int{a, b})
			}
		}
		for _, down := range downs {
			t.Run(fmt.Sprintf("%s/down-%v", tc.name, down), func(t *testing.T) {
				recoveryMatchesInProcess(t, tc.layout.Clone(), down)
			})
		}
	}
}

func recoveryMatchesInProcess(t *testing.T, layout *cluster.Layout, down []int) {
	const pages, pageSize = 16, 64
	shadow, err := NewShadowWith(layout, pages, pageSize, 0, "") // NewInProcess's seed
	if err != nil {
		t.Fatal(err)
	}
	cl, err := NewInProcess(layout, pages, pageSize)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	step := func() {
		t.Helper()
		if err := cl.Step(40); err != nil {
			t.Fatal(err)
		}
		shadow.Step(40)
	}
	round := func() {
		t.Helper()
		step()
		if err := cl.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		shadow.Commit()
	}
	check := func(when string) {
		t.Helper()
		if err := oracleDiff(t, cl.Coordinator, shadow); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
		if err := cl.VerifyParity(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}
	round()
	round()
	step() // past the last commit: a rebuild must read committed bytes, not live ones

	cl.Kill(down...)
	plan, err := cl.RecoverNodes(down...)
	if err != nil {
		t.Fatal(err)
	}
	if err := shadow.Recover(plan, cl.Epoch()); err != nil {
		t.Fatal(err)
	}
	check("after recovery")
	round()
	check("a round after recovery")
}

// TestVerifyParityCatchesEachViolation: on a committed in-process cluster,
// VerifyParity passes, then fails once for each thing it checks — a member
// pointing at the wrong parity home, a keeper missing from its layout home,
// and a block that is not its group's parity.
func TestVerifyParityCatchesEachViolation(t *testing.T) {
	cl, err := NewInProcess(paperLayout(t), 16, 64)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	if err := cl.Step(40); err != nil {
		t.Fatal(err)
	}
	if err := cl.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := cl.VerifyParity(); err != nil {
		t.Fatal(err)
	}
	g := cl.Layout().Groups[0]
	v, _ := cl.Layout().VM(g.Members[0])
	ms, _ := cl.nodes[v.Node].member(g.Members[0])
	home := cl.nodes[g.ParityNodes[0]]
	ks := home.keepers[g.Index]
	stranger, err := core.NewMKeeper(g.Index, 0, 1, map[string][]byte{"stranger": make([]byte, 16*64)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		corrupt, restore func()
	}{
		{"member points elsewhere",
			func() { ms.cfg.ParityNodes = []int{v.Node} }, func() { ms.cfg.ParityNodes = g.ParityNodes }},
		{"keeper missing",
			func() { delete(home.keepers, g.Index) }, func() { home.keepers[g.Index] = ks }},
		{"block diverges",
			func() { ks.keeper, stranger = stranger, ks.keeper }, func() { ks.keeper, stranger = stranger, ks.keeper }},
	} {
		tc.corrupt()
		if err := cl.VerifyParity(); err == nil {
			t.Errorf("%s: VerifyParity passed", tc.name)
		}
		tc.restore()
		if err := cl.VerifyParity(); err != nil {
			t.Fatalf("%s restored: %v", tc.name, err)
		}
	}
}
