package assign_test

import (
	"context"
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/linprog"
)

// TestStage3GroupingExactness cross-checks the grouped Stage-3 LP against
// an explicit per-core formulation (one TC variable per task×core pair):
// grouping cores by (node type, P-state) must not change the optimum.
func TestStage3GroupingExactness(t *testing.T) {
	sc := smallScenario(t, 51)
	dc := sc.DC
	res, err := assign.ThreeStage(dc, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	grouped := res.Stage3

	// Per-core LP.
	p := linprog.NewProblem(linprog.Maximize)
	ncores := dc.NumCores()
	tt := dc.T()
	ids := make([][]int, tt)
	coreType := make([]int, ncores)
	for j := range dc.Nodes {
		lo, hi := dc.CoreRange(j)
		for k := lo; k < hi; k++ {
			coreType[k] = dc.Nodes[j].Type
		}
	}
	for i := 0; i < tt; i++ {
		ids[i] = make([]int, ncores)
		for k := 0; k < ncores; k++ {
			ids[i][k] = -1
			ps := res.PStates[k]
			typ := coreType[k]
			if ps >= dc.NodeTypes[typ].OffState() {
				continue
			}
			ecs := dc.ECS[i][typ][ps]
			if ecs <= 1e-9 || 1/ecs > dc.TaskTypes[i].RelDeadline {
				continue
			}
			ids[i][k] = p.AddVar("", 0, linprog.Inf, dc.TaskTypes[i].Reward)
		}
	}
	for k := 0; k < ncores; k++ {
		var terms []linprog.Term
		for i := 0; i < tt; i++ {
			if id := ids[i][k]; id >= 0 {
				ecs := dc.ECS[i][coreType[k]][res.PStates[k]]
				terms = append(terms, linprog.Term{Var: id, Coef: 1 / ecs})
			}
		}
		if len(terms) > 0 {
			p.AddRow(linprog.LE, 1, terms...)
		}
	}
	for i := 0; i < tt; i++ {
		var terms []linprog.Term
		for k := 0; k < ncores; k++ {
			if id := ids[i][k]; id >= 0 {
				terms = append(terms, linprog.Term{Var: id, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddRow(linprog.LE, dc.TaskTypes[i].ArrivalRate, terms...)
		}
	}
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-grouped.RewardRate) > 1e-6*(1+sol.Objective) {
		t.Errorf("per-core LP %g != grouped LP %g", sol.Objective, grouped.RewardRate)
	}
}
