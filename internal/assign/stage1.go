package assign

import (
	"context"
	"fmt"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/thermal"
)

// powerTolerance is the slack allowed when verifying the exact (clamped)
// CRAC power against Pconst after solving the linearized LP, and when
// checking redlines.
const powerTolerance = 1e-6

// Stage1Result is the outcome of the relaxed power-assignment LP
// (Equation 9) at fixed CRAC outlet temperatures.
type Stage1Result struct {
	// CracOut is the outlet-temperature vector the LP was solved for.
	CracOut []float64
	// NodeCorePower[j] is the total power assigned to node j's cores (kW),
	// the aggregated PCORE of the paper's relaxation.
	NodeCorePower []float64
	// NodePower[j] = base + NodeCorePower[j].
	NodePower []float64
	// PredictedARR is the LP objective: the aggregate reward rate of the
	// relaxed assignment (an estimate of the reward rate Stage 3 realizes).
	PredictedARR float64
	// ComputePower, CRACPower and TotalPower are the exact power ledger at
	// the solution (CRAC power with the max(0,·) rule).
	ComputePower float64
	CRACPower    float64
	TotalPower   float64
	// Feasible reports whether the exact power and redline checks hold
	// (the LP uses a linearized CRAC power; see thermal.LinearizeCRACPower).
	Feasible bool
	// PowerShadowPrice is the dual of the power constraint: the marginal
	// steady-state reward rate gained per extra kW of Pconst (0 when the
	// power constraint is not binding).
	PowerShadowPrice float64
	// LinearBasePower is the constant term of the linearized power row:
	// compute base power plus linearized CRAC power with every core off.
	// No assignment at these outlet temperatures can use less linearized
	// power, so it is the minimum viable power budget for the LP.
	LinearBasePower float64
	// LinearPower is the linearized total power at the LP solution — the
	// left-hand side of the power row plus LinearBasePower. It differs
	// from TotalPower only by the linearization's dropped max(0,·) clamp,
	// satisfies LinearPower ≤ Pconst exactly when the LP says so, and is
	// what the zone decomposition's master problem accounts against the
	// shared budget (the exact clamped ledger is not additive across a
	// budget split; the LP's own row is).
	LinearPower float64
}

// NodeARRs builds, for every node type, the per-core concave ARR envelope
// at the given ψ — the exact input NewStage1Solver expects. Exported for
// the zone decomposition (internal/zones), whose per-zone solvers must
// share one envelope set so zone LPs price cores identically to the
// monolithic LP.
func NodeARRs(dc *model.DataCenter, psiPercent float64) ([]*pwl.Func, error) {
	return nodeARRs(dc, psiPercent)
}

// nodeARRs builds, for every node type, the per-core concave ARR envelope.
func nodeARRs(dc *model.DataCenter, psiPercent float64) ([]*pwl.Func, error) {
	out := make([]*pwl.Func, len(dc.NodeTypes))
	for j := range dc.NodeTypes {
		f, err := ARR(dc, j, psiPercent)
		if err != nil {
			return nil, err
		}
		out[j] = f
	}
	return out, nil
}

// Stage1Fixed solves the Stage-1 LP for fixed CRAC outlet temperatures.
//
// Formulation: each node j aggregates its identical cores — by concavity
// of ARR, splitting a node budget x equally is optimal, so node reward is
// n_j·ARR(x/n_j), itself a concave PWL encoded as bounded segment
// variables with decreasing slopes. The constraints are the paper's:
// total compute + (linearized) CRAC power ≤ Pconst, and inlet redlines,
// both affine in the node powers via the thermal model's sensitivities.
func Stage1Fixed(dc *model.DataCenter, tm *thermal.Model, arrs []*pwl.Func, cracOut []float64) (*Stage1Result, error) {
	ncn := dc.NCN()
	p := linprog.NewProblem(linprog.Maximize)

	// Segment variables per node.
	type segVar struct {
		node int
		id   int
	}
	var segVars []segVar
	nodeSegs := make([][]int, ncn) // var ids per node
	for j := 0; j < ncn; j++ {
		nt := dc.NodeType(j)
		scaled := arrs[dc.Nodes[j].Type].Scale(float64(nt.NumCores))
		for s, seg := range scaled.Segments() {
			id := p.AddVar(fmt.Sprintf("seg_%d_%d", j, s), 0, seg.Length, seg.Slope)
			segVars = append(segVars, segVar{j, id})
			nodeSegs[j] = append(nodeSegs[j], id)
		}
	}

	// Power constraint (paper constraint 4, linearized CRAC power):
	// Σ_j (B_j + x_j) + Σ_i [Const_i + Σ_j Coef_i[j]·(B_j + x_j)] ≤ Pconst.
	lin := tm.LinearizeCRACPower(cracOut)
	baseConst := 0.0
	nodeCoef := make([]float64, ncn)
	for j := 0; j < ncn; j++ {
		nodeCoef[j] = 1
		baseConst += dc.NodeType(j).BasePower
	}
	for _, l := range lin {
		baseConst += l.Const
		for j, c := range l.Coef {
			nodeCoef[j] += c
			baseConst += c * dc.NodeType(j).BasePower
		}
	}
	var powerTerms []linprog.Term
	for _, sv := range segVars {
		powerTerms = append(powerTerms, linprog.Term{Var: sv.id, Coef: nodeCoef[sv.node]})
	}
	p.AddRow(linprog.LE, dc.Pconst-baseConst, powerTerms...)

	// Thermal rows (paper constraint 5): for every thermal unit t,
	// base_t(cracOut) + Σ_j G[t][j]·(B_j + x_j) ≤ redline_t.
	base := tm.InletBase(cracOut)
	g := tm.PowerSensitivity()
	redline := dc.Redline()
	for t := 0; t < dc.NumThermal(); t++ {
		rhs := redline[t] - base[t]
		var terms []linprog.Term
		for j := 0; j < ncn; j++ {
			gj := g.At(t, j)
			rhs -= gj * dc.NodeType(j).BasePower
			if gj == 0 {
				continue
			}
			for _, id := range nodeSegs[j] {
				terms = append(terms, linprog.Term{Var: id, Coef: gj})
			}
		}
		if rhs < 0 {
			// Base power alone violates this redline: infeasible outlets.
			return &Stage1Result{CracOut: append([]float64(nil), cracOut...), Feasible: false},
				fmt.Errorf("assign: redline %d violated by base power alone at outlets %v", t, cracOut)
		}
		p.AddRow(linprog.LE, rhs, terms...)
	}

	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		return &Stage1Result{CracOut: append([]float64(nil), cracOut...), Feasible: false}, err
	}

	res := &Stage1Result{
		CracOut:          append([]float64(nil), cracOut...),
		NodeCorePower:    make([]float64, ncn),
		NodePower:        make([]float64, ncn),
		PredictedARR:     sol.Objective,
		PowerShadowPrice: sol.Dual(0), // the power row is added first
		LinearBasePower:  baseConst,
		LinearPower:      baseConst,
	}
	for _, sv := range segVars {
		res.NodeCorePower[sv.node] += sol.Value(sv.id)
		res.LinearPower += nodeCoef[sv.node] * sol.Value(sv.id)
	}
	for j := 0; j < ncn; j++ {
		res.NodePower[j] = dc.NodeType(j).BasePower + res.NodeCorePower[j]
		res.ComputePower += res.NodePower[j]
	}
	for _, cp := range tm.CRACPowers(cracOut, res.NodePower) {
		res.CRACPower += cp
	}
	res.TotalPower = res.ComputePower + res.CRACPower
	tin := tm.InletTemps(cracOut, res.NodePower)
	res.Feasible = res.TotalPower <= dc.Pconst+powerTolerance &&
		tm.RedlineSlack(tin) >= -powerTolerance
	return res, nil
}
