package assign

import (
	"fmt"

	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
)

// Violation is one broken constraint found by Verify.
type Violation struct {
	// Constraint names the paper constraint ("utilization", "deadline",
	// "arrival", "power", "redline", "pstate-range").
	Constraint string
	// Detail locates the violation.
	Detail string
	// Amount quantifies it (units depend on the constraint).
	Amount float64
}

func (v Violation) String() string {
	return fmt.Sprintf("%s: %s (by %g)", v.Constraint, v.Detail, v.Amount)
}

// Verify independently re-checks a complete first-step assignment against
// every constraint of the paper's Equation-7 problem: per-core utilization
// (constraint 1), deadlines (2), arrival rates (3), total power (4, exact
// CRAC power) and inlet redlines (5), plus P-state index validity. It
// shares no code with the LP construction, so it guards against formula
// drift between the optimizer and the model. An empty slice means the
// assignment is valid within tol.
func Verify(dc *model.DataCenter, tm *thermal.Model, res *ThreeStageResult, tol float64) []Violation {
	var out []Violation
	ncores := dc.NumCores()
	if len(res.PStates) != ncores {
		return []Violation{{Constraint: "pstate-range", Detail: "wrong P-state slice length", Amount: float64(len(res.PStates) - ncores)}}
	}

	// P-state validity and per-core utilization (constraint 1) and
	// deadline screening (constraint 2).
	validPStates := true
	lo, hi := 0, 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		typ := dc.Nodes[j].Type
		lo, hi = hi, hi+nt.NumCores
		for k := lo; k < hi; k++ {
			ps := res.PStates[k]
			if ps < 0 || ps > nt.OffState() {
				out = append(out, Violation{"pstate-range", fmt.Sprintf("core %d has P-state %d", k, ps), float64(ps)})
				validPStates = false
				continue
			}
			util := 0.0
			for i := range dc.TaskTypes {
				tc := res.Stage3.TC[i][k]
				if tc <= 0 {
					continue
				}
				ecs := dc.ECS[i][typ][ps]
				if ecs <= ecsEpsilon {
					out = append(out, Violation{"deadline", fmt.Sprintf("task %d on core %d with zero ECS", i, k), tc})
					continue
				}
				if 1/ecs > dc.TaskTypes[i].RelDeadline+tol {
					out = append(out, Violation{"deadline",
						fmt.Sprintf("task %d on core %d: exec time %g > m_i %g", i, k, 1/ecs, dc.TaskTypes[i].RelDeadline),
						1/ecs - dc.TaskTypes[i].RelDeadline})
				}
				util += tc / ecs
			}
			if util > 1+tol {
				out = append(out, Violation{"utilization", fmt.Sprintf("core %d", k), util - 1})
			}
		}
	}

	// Constraint 3: total desired rate per task ≤ arrival rate.
	for i, tt := range dc.TaskTypes {
		sum := 0.0
		for k := 0; k < ncores; k++ {
			sum += res.Stage3.TC[i][k]
		}
		if sum > tt.ArrivalRate+tol*(1+tt.ArrivalRate) {
			out = append(out, Violation{"arrival", fmt.Sprintf("task %d: rate %g > λ %g", i, sum, tt.ArrivalRate), sum - tt.ArrivalRate})
		}
	}

	// Constraints 4 and 5 with the exact power model (skipped when the
	// P-state indices themselves are invalid). Both read one inlet vector;
	// the total sums node then CRAC powers, in TotalPower's order.
	if !validPStates {
		return out
	}
	cracOut := res.Stage1.CracOut
	pcn := NodePowersFromPStates(dc, res.PStates)
	tin := tm.InletTemps(cracOut, pcn)
	total := 0.0
	for _, p := range pcn {
		total += p
	}
	for _, p := range tm.CRACPowersInto(cracOut, tin, nil) {
		total += p
	}
	if total > dc.Pconst+tol*(1+dc.Pconst) {
		out = append(out, Violation{"power", fmt.Sprintf("total %g kW > Pconst %g kW", total, dc.Pconst), total - dc.Pconst})
	}
	redline := dc.Redline()
	for t := range tin {
		if tin[t] > redline[t]+tol {
			out = append(out, Violation{"redline", fmt.Sprintf("thermal unit %d: %g °C > %g °C", t, tin[t], redline[t]), tin[t] - redline[t]})
		}
	}
	return out
}
