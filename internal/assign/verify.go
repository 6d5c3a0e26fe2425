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
//
// Constraints 1–3 are read in one pass over the plan in storage order,
// node by node. A dense plan is read task by task, each task's TC row over
// the node's cores. A grouped plan is read by runs of adjacent cores that
// share a group and a P-state: such cores have the same rates and the
// same checks, so one rateOnCore pass over the group's row (GroupRate)
// serves the run, while each rate still enters its arrival sum once per
// core. Either way every arrival sum (constraint 3) takes its cores in
// ascending order and every utilization (constraint 1) its tasks in
// ascending order. The grouped pass leaves out zero rates, which add
// nothing: an arrival sum starts at +0 and under round-to-nearest never
// becomes −0, so adding ±0 to it is the identity. Both forms of one plan
// therefore give the same sums bit for bit. The pass only flags a node; a
// flagged node's violations come from the per-core check
// (coreViolations), so they read exactly as a core-by-core scan reports
// them, in the same order.
func Verify(dc *model.DataCenter, tm *thermal.Model, res *ThreeStageResult, tol float64) []Violation {
	var out []Violation
	ncores := dc.NumCores()
	if len(res.PStates) != ncores {
		return []Violation{{Constraint: "pstate-range", Detail: "wrong P-state slice length", Amount: float64(len(res.PStates) - ncores)}}
	}

	maxCores := 0
	for typ := range dc.NodeTypes {
		maxCores = max(maxCores, dc.NodeTypes[typ].NumCores)
	}
	util := make([]float64, maxCores)
	// arrival[i] sums TC(i, k) over every core k in ascending order
	// (constraint 3), one node's cores at a time.
	arrival := make([]float64, len(dc.TaskTypes))
	limits := make([]float64, len(dc.TaskTypes))
	for i, tt := range dc.TaskTypes {
		limits[i] = tt.RelDeadline + tol
	}
	s3 := res.Stage3
	t := s3.Tasks

	// One pass per node: P-state validity, then the node's rates for
	// per-core utilization (constraint 1), deadlines (2) and the arrival
	// sums (3).
	validPStates := true
	lo, hi := 0, 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		typ := dc.Nodes[j].Type
		off := nt.OffState()
		lo, hi = hi, hi+nt.NumCores
		pstates := res.PStates[lo:hi]
		flagged := false
		for _, ps := range pstates {
			if ps < 0 || ps > off {
				flagged, validPStates = true, false
			}
		}
		u := util[:nt.NumCores]
		clear(u)
		if s3.grouped() {
			groups := s3.CoreGroup[lo:hi]
			for c := 0; c < len(groups); {
				// Cores c..e-1 share a group and a P-state: one check and
				// one utilization serve them all.
				g, ps := groups[c], pstates[c]
				e := c + 1
				for e < len(groups) && groups[e] == g && pstates[e] == ps {
					e++
				}
				if g >= 0 { // an off core runs nothing
					uc := 0.0
					for i, x := range s3.GroupRate[int(g)*t : (int(g)+1)*t] {
						if x == 0 {
							continue
						}
						sum := arrival[i]
						for range e - c {
							sum += x
						}
						arrival[i] = sum
						if !(x < 0) && rateOnCore(x, ps, off, dc.ECS[i][typ], limits[i], &uc) {
							flagged = true
						}
					}
					for k := c; k < e; k++ {
						u[k] = uc
					}
				}
				c = e
			}
		} else {
			for i := range dc.TaskTypes {
				ecsRow := dc.ECS[i][typ]
				sum := arrival[i]
				for c, x := range s3.TC[i][lo:hi] {
					sum += x
					if !(x <= 0) && rateOnCore(x, pstates[c], off, ecsRow, limits[i], &u[c]) {
						flagged = true
					}
				}
				arrival[i] = sum
			}
		}
		for _, v := range u {
			if v > 1+tol {
				flagged = true
			}
		}
		if flagged {
			out = coreViolations(dc, res, j, lo, hi, tol, out)
		}
	}

	// Constraint 3: total desired rate per task ≤ arrival rate.
	for i, tt := range dc.TaskTypes {
		if sum := arrival[i]; sum > tt.ArrivalRate+tol*(1+tt.ArrivalRate) {
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

// rateOnCore adds a rate x that is not ≤ 0 (a NaN included) of one task
// on a core at P-state ps to the core's utilization *u, and reports
// whether it breaks a deadline or runs on a zero ECS. A P-state outside
// [0, off] adds nothing: its core is flagged by the P-state check.
func rateOnCore(x float64, ps, off int, ecsRow []float64, limit float64, u *float64) bool {
	if ps < 0 || ps > off {
		return false
	}
	ecs := ecsRow[ps]
	if ecs <= ecsEpsilon {
		return true
	}
	*u += x / ecs
	return 1/ecs > limit
}

// coreViolations appends the P-state, deadline and utilization violations
// (constraints 1–2) of node j's cores [lo, hi) to out, core by core.
func coreViolations(dc *model.DataCenter, res *ThreeStageResult, j, lo, hi int, tol float64, out []Violation) []Violation {
	nt := dc.NodeType(j)
	typ := dc.Nodes[j].Type
	for k := lo; k < hi; k++ {
		ps := res.PStates[k]
		if ps < 0 || ps > nt.OffState() {
			out = append(out, Violation{"pstate-range", fmt.Sprintf("core %d has P-state %d", k, ps), float64(ps)})
			continue
		}
		util := 0.0
		for i := range dc.TaskTypes {
			tc := res.Stage3.Rate(i, k)
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
	return out
}
