package assign

import (
	"fmt"

	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
)

// VerifyOracle exposes verifyOracle to the external tests.
var VerifyOracle = verifyOracle

// verifyOracle is Verify as a core-by-core scan of the dense plan
// (Stage3Result.Dense): for each core, every task's TC entry (a strided
// read down TC's columns), then a second pass over the whole matrix for
// the arrival sums, and the dense G·PCN product for the inlets. Verify's node-blocked pass and banded product must
// return exactly its violations, Amount bits included.
func verifyOracle(dc *model.DataCenter, tm *thermal.Model, res *ThreeStageResult, tol float64) []Violation {
	var out []Violation
	ncores := dc.NumCores()
	if len(res.PStates) != ncores {
		return []Violation{{Constraint: "pstate-range", Detail: "wrong P-state slice length", Amount: float64(len(res.PStates) - ncores)}}
	}

	tcs := res.Stage3.Dense()

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
				tc := tcs[i][k]
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
			sum += tcs[i][k]
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
	tin := oracleInletTemps(tm, cracOut, pcn)
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

// oracleInletTemps is thermal.Model.InletTemps with the dense G·PCN
// product.
func oracleInletTemps(tm *thermal.Model, cracOut, pcn []float64) []float64 {
	tin := tm.InletBase(cracOut)
	gp := tm.PowerSensitivity().MulVec(pcn)
	for i := range tin {
		tin[i] += gp[i]
	}
	return tin
}
