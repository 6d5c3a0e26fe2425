package assign

import (
	"context"
	"fmt"
	"sort"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
)

// OneShotStage3 is Stage3OneShot's plan in the per-core form: the dense TC
// matrix and every core's utilization.
type OneShotStage3 struct {
	TC              [][]float64
	RewardRate      float64
	CoreUtilization []float64
}

// Stage3OneShot is the Stage-3 LP built from scratch and solved on a fresh
// workspace, with map-keyed grouping and a per-core readback, as the
// one-shot Stage3Context did before Stage3Solver became the only Stage-3
// LP: the reference Stage3Solver's grouped result must match bit for bit.
func Stage3OneShot(ctx context.Context, dc *model.DataCenter, pstates []int) (*OneShotStage3, error) {
	if len(pstates) != dc.NumCores() {
		return nil, fmt.Errorf("assign: got %d P-states for %d cores", len(pstates), dc.NumCores())
	}

	// Group cores by (node type, P-state).
	type groupKey struct{ nodeType, pstate int }
	counts := make(map[groupKey]int)
	for j := range dc.Nodes {
		lo, hi := dc.CoreRange(j)
		for k := lo; k < hi; k++ {
			counts[groupKey{dc.Nodes[j].Type, pstates[k]}]++
		}
	}
	type group struct {
		key   groupKey
		count int
	}
	var groups []group
	for k, c := range counts {
		if k.pstate >= dc.NodeTypes[k.nodeType].OffState() {
			continue // off cores execute nothing
		}
		groups = append(groups, group{k, c})
	}
	// Deterministic order for reproducible LP construction.
	sort.Slice(groups, func(a, b int) bool {
		if groups[a].key.nodeType != groups[b].key.nodeType {
			return groups[a].key.nodeType < groups[b].key.nodeType
		}
		return groups[a].key.pstate < groups[b].key.pstate
	})

	p := linprog.NewProblem(linprog.Maximize)
	t := dc.T()
	varID := make(map[[2]int]int) // (task, group index) -> var
	for i := 0; i < t; i++ {
		for gi, g := range groups {
			if !deadlineFeasible(dc, i, g.key.nodeType, g.key.pstate) {
				continue // constraint 2
			}
			id := p.AddVar(fmt.Sprintf("tc_%d_%d", i, gi), 0, linprog.Inf, dc.TaskTypes[i].Reward)
			varID[[2]int{i, gi}] = id
		}
	}
	// Constraint 1 per group.
	for gi, g := range groups {
		var terms []linprog.Term
		for i := 0; i < t; i++ {
			if id, ok := varID[[2]int{i, gi}]; ok {
				ecs := dc.ECS[i][g.key.nodeType][g.key.pstate]
				terms = append(terms, linprog.Term{Var: id, Coef: 1 / ecs})
			}
		}
		if len(terms) > 0 {
			p.AddRow(linprog.LE, float64(g.count), terms...)
		}
	}
	// Constraint 3 per task type.
	for i := 0; i < t; i++ {
		var terms []linprog.Term
		for gi := range groups {
			if id, ok := varID[[2]int{i, gi}]; ok {
				terms = append(terms, linprog.Term{Var: id, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddRow(linprog.LE, dc.TaskTypes[i].ArrivalRate, terms...)
		}
	}

	sol, err := p.Solve(ctx, nil)
	if err != nil {
		return nil, fmt.Errorf("assign: Stage-3 LP: %w", err)
	}

	// Disaggregate group rates evenly over member cores.
	ncores := dc.NumCores()
	res := &OneShotStage3{
		TC:              make([][]float64, t),
		RewardRate:      sol.Objective,
		CoreUtilization: make([]float64, ncores),
	}
	for i := range res.TC {
		res.TC[i] = make([]float64, ncores)
	}
	groupIdx := make(map[groupKey]int, len(groups))
	for gi, g := range groups {
		groupIdx[g.key] = gi
	}
	for j := range dc.Nodes {
		lo, hi := dc.CoreRange(j)
		for k := lo; k < hi; k++ {
			key := groupKey{dc.Nodes[j].Type, pstates[k]}
			gi, ok := groupIdx[key]
			if !ok {
				continue // off core
			}
			g := groups[gi]
			for i := 0; i < t; i++ {
				id, ok := varID[[2]int{i, gi}]
				if !ok {
					continue
				}
				rate := sol.Value(id) / float64(g.count)
				res.TC[i][k] = rate
				res.CoreUtilization[k] += rate / dc.ECS[i][key.nodeType][key.pstate]
			}
		}
	}
	return res, nil
}
