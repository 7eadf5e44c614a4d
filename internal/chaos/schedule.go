package chaos

import (
	"fmt"
	"math"
	"sort"

	"dvdc/internal/failure"
)

// KillPlan maps a stochastic failure schedule (internal/failure) onto
// discrete checkpoint rounds: Victims(r) is the set of nodes killed during
// round r. The plan is materialized up front from the schedule's event
// stream, so the same schedule seed always produces the same per-round kill
// sets — the node-level half of a reproducible chaos run.
type KillPlan struct {
	rounds  int
	byRound [][]int
}

// PlanKills drains sched up to rounds*roundSeconds and buckets each failure
// event into round int(Time/roundSeconds). At most maxPerRound distinct
// victims are kept per round (0 = unlimited) and a node killed twice in one
// round counts once — the harness restarts victims between rounds, so a
// second same-round kill has no separate effect.
func PlanKills(sched *failure.NodeSchedule, rounds int, roundSeconds float64, maxPerRound int) (*KillPlan, error) {
	if rounds <= 0 {
		return nil, fmt.Errorf("chaos: kill plan needs rounds > 0, got %d", rounds)
	}
	if roundSeconds <= 0 || math.IsNaN(roundSeconds) {
		return nil, fmt.Errorf("chaos: kill plan needs roundSeconds > 0, got %v", roundSeconds)
	}
	p := &KillPlan{rounds: rounds, byRound: make([][]int, rounds)}
	horizon := float64(rounds) * roundSeconds
	seen := make([]map[int]bool, rounds)
	for {
		ev := sched.Next()
		if math.IsInf(ev.Time, 1) || ev.Time >= horizon {
			break
		}
		r := int(ev.Time / roundSeconds)
		if r < 0 || r >= rounds {
			continue
		}
		if seen[r] == nil {
			seen[r] = map[int]bool{}
		}
		if seen[r][ev.Node] {
			continue
		}
		if maxPerRound > 0 && len(p.byRound[r]) >= maxPerRound {
			continue
		}
		seen[r][ev.Node] = true
		p.byRound[r] = append(p.byRound[r], ev.Node)
	}
	for _, v := range p.byRound {
		sort.Ints(v)
	}
	return p, nil
}

// PlanPoissonKills is the common case: independent per-node Poisson failures
// with the given MTBF, bucketed into rounds. At most perRound victims per
// round: the soak harness passes its layout's tolerance, which keeps every
// kill round inside the erasure code for the orthogonal layouts it runs.
func PlanPoissonKills(nodes, perRound, rounds int, mtbfSeconds, roundSeconds float64, seed int64) (*KillPlan, error) {
	sched, err := failure.NewPoissonNodes(nodes, mtbfSeconds, seed)
	if err != nil {
		return nil, err
	}
	return PlanKills(sched, rounds, roundSeconds, perRound)
}

// Victims returns the nodes to kill in round r (nil when none, or r is out
// of range). The slice is a copy.
func (p *KillPlan) Victims(r int) []int {
	if r < 0 || r >= p.rounds {
		return nil
	}
	return append([]int(nil), p.byRound[r]...)
}

// Rounds returns the plan's horizon in rounds.
func (p *KillPlan) Rounds() int { return p.rounds }

// TotalKills counts victims across every round.
func (p *KillPlan) TotalKills() int {
	n := 0
	for r := 0; r < p.rounds; r++ {
		n += len(p.Victims(r))
	}
	return n
}

// String renders the plan compactly: "round 3: kill [1]; round 7: kill [0 2]".
func (p *KillPlan) String() string {
	s := ""
	for r := 0; r < p.rounds; r++ {
		v := p.Victims(r)
		if len(v) == 0 {
			continue
		}
		if s != "" {
			s += "; "
		}
		s += fmt.Sprintf("round %d: kill %v", r, v)
	}
	if s == "" {
		return "no kills"
	}
	return s
}
