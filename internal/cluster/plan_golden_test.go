package cluster

import (
	"crypto/sha256"
	"fmt"
	"slices"
	"strings"
	"testing"
)

// goldenLayouts are the shapes every plan is pinned on: the paper layout,
// recover-rs2's, the soak shapes, a first-shot and a dedicated layout, and
// m = 2 on 6 nodes, where every double loss is degraded.
var goldenLayouts = []struct {
	name  string
	build func() (*Layout, error)
}{
	{"paper", Paper12VM},
	{"rs2-7x3", func() (*Layout, error) { return BuildDistributedGroups(7, 1, 2, 3) }},
	{"soak-8x7", func() (*Layout, error) { return BuildDistributed(8, 1, 1) }},
	{"soak-8x3", func() (*Layout, error) { return BuildDistributedGroups(8, 1, 1, 3) }},
	{"soak-16x4", func() (*Layout, error) { return BuildDistributedGroups(16, 1, 1, 4) }},
	{"first-shot-4", func() (*Layout, error) { return BuildFirstShot(4) }},
	{"dedicated-4x3", func() (*Layout, error) { return BuildDedicated(4, 3) }},
	{"m2-6x3", func() (*Layout, error) { return BuildDistributedGroups(6, 1, 2, 3) }},
}

// planGolden pins, per layout, how many cases TestPlanGolden renders and the
// sha256 of the renderings. A change to any plan, step order, target or
// error moves it.
var planGolden = map[string]string{
	"paper":         "58 cases 259d41f925e632af33cba90682b40b2bb9b9033f0f9cb051fb49b583e4cabdd6",
	"rs2-7x3":       "196 cases 0a93ce26892d15c498dbe423a00327a0c3203b8547777e6db372a8e80b83b304",
	"soak-8x7":      "228 cases 0196efdf4e88d4b4b0ed290207d86d4cad192cd40eb43a376e5b9c9e5129b79f",
	"soak-8x3":      "232 cases 82fd6733ff40f3fb007ca73386d1381f08ff52cfbb71db50d2d66faa36b56369",
	"soak-16x4":     "960 cases 1203a21abdb03599dd4eea0f07486d5dfaf8680e864d619a9054964cd8555842",
	"first-shot-4":  "90 cases 977e73db4dc93642f55699b9995bd3f284980ad9074a085a1b8cc304174bc13f",
	"dedicated-4x3": "90 cases f0313308e045e1704552e2f71462e4c577abcca536b283d7ab06abcb153c5867",
	"m2-6x3":        "144 cases 81dd64358c28cdf56ff81d6971638c3e39355a58ab2473d857d9a9ae8a8a3813",
}

// renderPlan writes a plan, or the error planning it returned, as one line.
func renderPlan(p *Plan, err error) string {
	if err != nil {
		return "error: " + err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "down=%v degraded=%t", p.Down, p.Degraded)
	for _, s := range p.Steps {
		fmt.Fprintf(&b, " | %s %q g%d p%d ->%d degraded=%t", s.Kind, s.VM, s.Group, s.Parity, s.TargetNode, s.Degraded)
	}
	return b.String()
}

// renderRecovery is renderPlan for a recovery of down planned against l. A
// refusal for loss beyond tolerance renders without its text, which names
// one of the groups over tolerance in map order.
func renderRecovery(l *Layout, p *Plan, err error, down ...int) string {
	if err != nil && !l.Survives(down...) {
		return "over tolerance"
	}
	return renderPlan(p, err)
}

// movedBy returns a copy of l with every step of p carried out by hand: the
// step's VM, or its group's parity slot, moves to its target.
func movedBy(l *Layout, p *Plan) *Layout {
	cp := l.Clone()
	for _, s := range p.Steps {
		if s.Kind == RestoreVM {
			cp.VMs[cp.vmIndex[s.VM]].Node = s.TargetNode
		} else {
			cp.Groups[s.Group].ParityNodes[s.Parity] = s.TargetNode
		}
	}
	return cp
}

// decodeCounts tallies a recovery plan for the choice of decoder: how many
// damaged groups send every step to one node and how many to two or more,
// and how many groups each node decodes, a group's decoder being the target
// of its first step.
func decodeCounts(p *Plan, nodes int) (oneTarget, more int, decodes []int) {
	decodes = make([]int, nodes)
	targets := map[int][]int{}
	var order []int
	for _, s := range p.Steps {
		if targets[s.Group] == nil {
			order = append(order, s.Group)
			decodes[s.TargetNode]++
		}
		if !slices.Contains(targets[s.Group], s.TargetNode) {
			targets[s.Group] = append(targets[s.Group], s.TargetNode)
		}
	}
	for _, g := range order {
		if len(targets[g]) == 1 {
			oneTarget++
		} else {
			more++
		}
	}
	return oneTarget, more, decodes
}

// TestPlanGolden renders every plan the four planners make on the golden
// layouts — recovery of every single and double loss, a rebalance of each
// recovered layout with its nodes repaired, a second loss after each single
// one, and evacuation and keeper evacuation of every node with each other
// node down or none — and holds each layout's renderings to its pinned
// digest. It also logs, per layout and over every recovery plan, how the
// damaged groups split between one target and several, and how many groups
// each node decodes.
func TestPlanGolden(t *testing.T) {
	for _, gl := range goldenLayouts {
		l, err := gl.build()
		if err != nil {
			t.Fatal(err)
		}
		var lines []string
		var oneTarget, more, recoveries, worst int
		var busiest, perNode float64
		tally := func(p *Plan) {
			one, m, decodes := decodeCounts(p, l.Nodes)
			oneTarget, more, recoveries = oneTarget+one, more+m, recoveries+1
			top := slices.Max(decodes)
			worst = max(worst, top)
			busiest += float64(top)
			perNode += float64(one+m) / float64(l.Nodes-len(p.Down))
		}
		var losses [][]int
		for a := 0; a < l.Nodes; a++ {
			losses = append(losses, []int{a})
		}
		for a := 0; a < l.Nodes; a++ {
			for b := a + 1; b < l.Nodes; b++ {
				losses = append(losses, []int{a, b})
			}
		}
		for _, down := range losses {
			plan, err := l.PlanRecovery(down...)
			lines = append(lines, fmt.Sprintf("recover %v: %s", down, renderRecovery(l, plan, err, down...)))
			if err == nil {
				tally(plan)
				rec := movedBy(l, plan)
				rb, err := rec.PlanRebalance()
				lines = append(lines, fmt.Sprintf("rebalance after %v: %s", down, renderPlan(rb, err)))
				// A second loss while the first node is still down, as
				// the runtime plans it: against the recovered layout.
				for n := 0; n < l.Nodes && len(down) == 1; n++ {
					if n != down[0] {
						plan, err := rec.PlanRecovery(down[0], n)
						lines = append(lines, fmt.Sprintf("recover %d after %v: %s", n, down, renderRecovery(rec, plan, err, down[0], n)))
						if err == nil {
							tally(plan)
						}
					}
				}
			}
			for i, n := range down {
				others := slices.Delete(slices.Clone(down), i, i+1)
				plan, err := l.PlanEvacuation(n, others...)
				lines = append(lines, fmt.Sprintf("evacuate %d down %v: %s", n, others, renderPlan(plan, err)))
				plan, err = l.PlanKeeperEvacuation(n, others...)
				lines = append(lines, fmt.Sprintf("evacuate keepers %d down %v: %s", n, others, renderPlan(plan, err)))
			}
		}
		sum := sha256.Sum256([]byte(strings.Join(lines, "\n")))
		got := fmt.Sprintf("%d cases %x", len(lines), sum)
		if want := planGolden[gl.name]; got != want {
			t.Errorf("%s: plans render as %q, want %q", gl.name, got, want)
		}
		if recoveries > 0 {
			t.Logf("%-13s %4d cases; %3d recoveries: damaged groups with one target %4d, with two or more %4d; decodes per node: max %d, mean of busiest %.2f, mean %.2f",
				gl.name, len(lines), recoveries, oneTarget, more, worst, busiest/float64(recoveries), perNode/float64(recoveries))
		}
	}
}
