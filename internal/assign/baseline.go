package assign

import (
	"context"
	"fmt"
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// BaselineResult is the outcome of the Equation-21 assignment adapted from
// Parolini et al. [26]: cores are either at P-state 0 or off, allocated via
// per-node compute-resource fractions FRAC(i, j).
type BaselineResult struct {
	// CracOut is the outlet-temperature vector used.
	CracOut []float64
	// Frac[i][j] is the fraction of node j's cores executing task type i
	// (after the Equation-22 integer rounding).
	Frac [][]float64
	// RewardRateLP is the LP optimum before rounding; RewardRate is the
	// value after scaling each node's fractions down so its used-core
	// count (Equation 22) is an integer.
	RewardRateLP float64
	RewardRate   float64
	// UsedCores[j] is the integer number of active cores on node j.
	UsedCores []int
	// NodePower, TotalPower: exact power ledger after rounding.
	NodePower  []float64
	TotalPower float64
	// Feasible reports the exact power/redline check.
	Feasible bool
	// SearchEvals counts the outlet candidates the temperature search
	// visited; SearchSolved counts those it evaluated (the rest were
	// screened out by their weak-duality bound).
	SearchEvals  int
	SearchSolved int
}

// BaselineFixed solves the Equation-21 LP at fixed CRAC outlet
// temperatures and applies the Equation-22 rounding.
//
// Note: the paper's Equation 19 writes node power as B + π_{j,0}·ΣFRAC,
// while its reward (Equation 21) multiplies by |cores_j|; for the two to
// be consistent FRAC must scale both, so the power term here includes
// |cores_j| as well.
func BaselineFixed(dc *model.DataCenter, tm *thermal.Model, cracOut []float64) (*BaselineResult, error) {
	return newBaselineLP(dc, tm).solveAt(cracOut)
}

// baselineLP is the Equation-21 LP as an outletLP skeleton. Its rows are
// the per-task rate rows and per-node fraction rows that have terms, then
// the power row, then one thermal row per thermal unit.
type baselineLP struct {
	outletLP
	varID  [][]int   // varID[i][j]: variable of FRAC(i, j), −1 if screened out
	coreP0 []float64 // π_{j,0}·|cores_j|
}

// newBaselineLP builds the Equation-21 LP's variables and invariant rows;
// solveAt patches in the outlets.
func newBaselineLP(dc *model.DataCenter, tm *thermal.Model) *baselineLP {
	ncn := dc.NCN()
	t := dc.T()
	p := linprog.NewProblem(linprog.Maximize)
	lp := &baselineLP{}

	// Variables FRAC(i, j) with deadline screening at P-state 0.
	var varNode []int
	varID := make([][]int, t)
	for i := 0; i < t; i++ {
		varID[i] = make([]int, ncn)
		for j := 0; j < ncn; j++ {
			varID[i][j] = -1
			if !deadlineFeasible(dc, i, dc.Nodes[j].Type, 0) {
				continue
			}
			nt := dc.NodeType(j)
			obj := dc.TaskTypes[i].Reward * dc.ECS[i][dc.Nodes[j].Type][0] * float64(nt.NumCores)
			varID[i][j] = p.AddVar(fmt.Sprintf("frac_%d_%d", i, j), 0, 1, obj)
			varNode = append(varNode, j)
		}
	}
	lp.varID = varID

	// Constraint 1: execution rate per task ≤ arrival rate.
	for i := 0; i < t; i++ {
		var terms []linprog.Term
		for j := 0; j < ncn; j++ {
			if id := varID[i][j]; id >= 0 {
				coef := float64(dc.NodeType(j).NumCores) * dc.ECS[i][dc.Nodes[j].Type][0]
				terms = append(terms, linprog.Term{Var: id, Coef: coef})
			}
		}
		if len(terms) > 0 {
			p.AddRow(linprog.LE, dc.TaskTypes[i].ArrivalRate, terms...)
		}
	}
	// Constraint 2: fractions per node sum to ≤ 1.
	for j := 0; j < ncn; j++ {
		var terms []linprog.Term
		for i := 0; i < t; i++ {
			if id := varID[i][j]; id >= 0 {
				terms = append(terms, linprog.Term{Var: id, Coef: 1})
			}
		}
		if len(terms) > 0 {
			p.AddRow(linprog.LE, 1, terms...)
		}
	}

	// Node power: PCN_j = B_j + π_{j,0}·|cores_j|·Σ_i FRAC(i,j), so the
	// power (constraint 3, linearized CRAC as in Stage 1) and thermal
	// (constraint 4) rows are affine in FRAC with π_{j,0}·|cores_j| per
	// unit.
	lp.coreP0 = make([]float64, ncn)
	for j := range lp.coreP0 {
		nt := dc.NodeType(j)
		lp.coreP0[j] = nt.Core.PStatePower(0) * float64(nt.NumCores)
	}
	varPow := make([]float64, len(varNode))
	for k, j := range varNode {
		varPow[k] = lp.coreP0[j]
	}
	lp.init(dc, tm, p, varNode, varPow)
	return lp
}

// solveAt solves the LP at cracOut and applies the Equation-22 rounding.
func (lp *baselineLP) solveAt(cracOut []float64) (*BaselineResult, error) {
	sol, err := lp.solve(context.Background(), cracOut)
	if err != nil {
		return &BaselineResult{CracOut: append([]float64(nil), cracOut...)}, lp.redlineErr(err, cracOut)
	}
	return lp.result(cracOut, sol), nil
}

// result reads the LP solution back and applies the Equation-22 rounding.
func (lp *baselineLP) result(cracOut []float64, sol *linprog.Solution) *BaselineResult {
	dc, tm := lp.dc, lp.tm
	ncn, t := dc.NCN(), dc.T()
	varID, coreP0 := lp.varID, lp.coreP0
	res := &BaselineResult{
		CracOut:      append([]float64(nil), cracOut...),
		Frac:         make([][]float64, t),
		RewardRateLP: sol.Objective,
		UsedCores:    make([]int, ncn),
		NodePower:    make([]float64, ncn),
	}
	for i := range res.Frac {
		res.Frac[i] = make([]float64, ncn)
		for j := 0; j < ncn; j++ {
			if id := varID[i][j]; id >= 0 {
				res.Frac[i][j] = sol.Value(id)
			}
		}
	}

	// Equation-22 rounding: scale each node's fractions down by a common
	// factor so |cores_j|·ΣFRAC is an integer.
	for j := 0; j < ncn; j++ {
		n := float64(dc.NodeType(j).NumCores)
		sum := 0.0
		for i := 0; i < t; i++ {
			sum += res.Frac[i][j]
		}
		used := sum * n
		floor := math.Floor(used + 1e-9)
		if used > floor {
			scale := floor / used
			for i := 0; i < t; i++ {
				res.Frac[i][j] *= scale
			}
		}
		res.UsedCores[j] = int(floor)
	}
	// Reward and power after rounding.
	for j := 0; j < ncn; j++ {
		nt := dc.NodeType(j)
		frac := 0.0
		for i := 0; i < t; i++ {
			f := res.Frac[i][j]
			frac += f
			res.RewardRate += dc.TaskTypes[i].Reward * dc.ECS[i][dc.Nodes[j].Type][0] * float64(nt.NumCores) * f
		}
		res.NodePower[j] = nt.BasePower + coreP0[j]*frac
	}
	total := 0.0
	for _, np := range res.NodePower {
		total += np
	}
	for _, cp := range tm.CRACPowers(cracOut, res.NodePower) {
		total += cp
	}
	res.TotalPower = total
	tin := tm.InletTemps(cracOut, res.NodePower)
	res.Feasible = total <= dc.Pconst+powerTolerance && tm.RedlineSlack(tin) >= -powerTolerance
	return res
}

// Assignment converts a baseline result into the (P-states, TC) pair the
// second-step dynamic scheduler consumes: each node's first UsedCores
// cores run at P-state 0 (rest off), and the node's per-task execution
// rates ECS·|cores_j|·FRAC(i,j) are split evenly across its active cores.
func (r *BaselineResult) Assignment(dc *model.DataCenter) (pstates []int, tc [][]float64) {
	pstates = make([]int, dc.NumCores())
	tc = make([][]float64, dc.T())
	for i := range tc {
		tc[i] = make([]float64, dc.NumCores())
	}
	lo, hi := 0, 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		lo, hi = hi, hi+nt.NumCores
		active := r.UsedCores[j]
		for k := lo; k < hi; k++ {
			if k-lo < active {
				pstates[k] = 0
			} else {
				pstates[k] = nt.OffState()
			}
		}
		if active == 0 {
			continue
		}
		for i := range tc {
			rate := dc.ECS[i][dc.Nodes[j].Type][0] * float64(nt.NumCores) * r.Frac[i][j]
			per := rate / float64(active)
			for k := lo; k < lo+active; k++ {
				tc[i][k] = per
			}
		}
	}
	return pstates, tc
}

// Baseline runs the Equation-21 technique with the same CRAC outlet
// temperature search as the three-stage assignment, using the LP optimum
// as the search criterion. Each search worker gets its own evaluator
// owning one patched LP skeleton and workspace, so candidates reuse that
// worker's LP and tableau buffers instead of building fresh ones. With
// opts.Recorder tracing, the search's candidate spans and every
// Equation-21 LP solve's span go to its tracer.
func Baseline(dc *model.DataCenter, tm *thermal.Model, opts Options) (*BaselineResult, error) {
	tr := opts.Recorder.Tracer()
	if tr != nil {
		opts.Search.Trace = tr
	}
	best, err := runSearch(context.Background(), dc.NCRAC(), opts, baselineFactory(dc, tm, tr))
	if err != nil {
		return nil, fmt.Errorf("assign: baseline temperature search: %w", err)
	}
	lp := newBaselineLP(dc, tm)
	lp.ws.Trace = tr
	res, err := lp.solveAt(best.Out)
	if err != nil {
		return nil, err
	}
	res.SearchEvals, res.SearchSolved = best.Evals, best.Solved
	return res, nil
}

// baselineFactory hands every search worker its own Equation-21 evaluator,
// its LP solves traced on tr (nil: untraced).
func baselineFactory(dc *model.DataCenter, tm *thermal.Model, tr *telemetry.Tracer) tempsearch.Factory {
	return func() tempsearch.Evaluator {
		lp := newBaselineLP(dc, tm)
		lp.ws.Trace = tr
		return baselineEval{lp}
	}
}

// baselineEval is one search worker's Equation-21 evaluator: values from
// its LP's solves, duals and bounds from the same LP.
type baselineEval struct{ *baselineLP }

// Eval returns the Equation-21 LP optimum at cracOut when the rounded
// assignment passes the exact power and redline checks.
func (e baselineEval) Eval(cracOut []float64) (float64, bool) {
	res, err := e.solveAt(cracOut)
	if err != nil || !res.Feasible {
		return 0, false
	}
	return res.RewardRateLP, true
}
