package assign

import (
	"context"
	"fmt"
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
)

// BaselineFresh solves the Equation-21 LP at cracOut on an LP built from
// scratch, as BaselineFixed did before the LP became a patched skeleton.
func BaselineFresh(dc *model.DataCenter, tm *thermal.Model, cracOut []float64) (*BaselineResult, error) {
	lp := newFreshBaselineLP(dc, tm, cracOut)
	if lp.badRow >= 0 {
		return &BaselineResult{CracOut: append([]float64(nil), cracOut...)},
			fmt.Errorf("assign: redline %d violated by base power alone at outlets %v", lp.badRow, cracOut)
	}
	sol, err := lp.p.Solve(context.Background(), nil)
	if err != nil {
		return &BaselineResult{CracOut: append([]float64(nil), cracOut...)}, err
	}
	return lp.result(dc, tm, cracOut, sol), nil
}

// freshBaselineLP is the Equation-21 LP at one outlet vector, built from
// scratch: the reference a patched baselineLP must match bit for bit. Its
// rows are the per-task rate rows and per-node fraction rows that have
// terms, then the power row, then one thermal row per thermal unit.
type freshBaselineLP struct {
	p       *linprog.Problem
	varID   [][]int // varID[i][j]: variable of FRAC(i, j), −1 if screened out
	varNode []int   // node of each variable
	varPow  []float64
	coreP0  []float64 // π_{j,0}·|cores_j|
	// badRow is the first thermal row whose redline base power alone
	// violates (the outlets are infeasible), or −1.
	badRow int
}

// newFreshBaselineLP builds the Equation-21 LP at cracOut.
func newFreshBaselineLP(dc *model.DataCenter, tm *thermal.Model, cracOut []float64) *freshBaselineLP {
	ncn := dc.NCN()
	t := dc.T()
	p := linprog.NewProblem(linprog.Maximize)
	lp := &freshBaselineLP{p: p, badRow: -1}

	// Variables FRAC(i, j) with deadline screening at P-state 0.
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
			lp.varNode = append(lp.varNode, j)
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

	// Node power: PCN_j = B_j + π_{j,0}·|cores_j|·Σ_i FRAC(i,j). Power and
	// thermal constraints are affine in the per-node used power
	// u_j = π_{j,0}·|cores_j|·ΣFRAC.
	coreP0 := make([]float64, ncn)
	for j := 0; j < ncn; j++ {
		nt := dc.NodeType(j)
		coreP0[j] = nt.Core.PStatePower(0) * float64(nt.NumCores)
	}
	lp.coreP0 = coreP0
	for _, j := range lp.varNode {
		lp.varPow = append(lp.varPow, coreP0[j])
	}

	// Constraint 3 (power, linearized CRAC as in Stage 1).
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
	for j := 0; j < ncn; j++ {
		for i := 0; i < t; i++ {
			if id := varID[i][j]; id >= 0 {
				powerTerms = append(powerTerms, linprog.Term{Var: id, Coef: nodeCoef[j] * coreP0[j]})
			}
		}
	}
	p.AddRow(linprog.LE, dc.Pconst-baseConst, powerTerms...)

	// Constraint 4 (thermal redlines).
	base := tm.InletBase(cracOut)
	g := tm.PowerSensitivity()
	redline := dc.Redline()
	for th := 0; th < dc.NumThermal(); th++ {
		rhs := redline[th] - base[th]
		var terms []linprog.Term
		for j := 0; j < ncn; j++ {
			gj := g.At(th, j)
			rhs -= gj * dc.NodeType(j).BasePower
			if gj == 0 {
				continue
			}
			for i := 0; i < t; i++ {
				if id := varID[i][j]; id >= 0 {
					terms = append(terms, linprog.Term{Var: id, Coef: gj * coreP0[j]})
				}
			}
		}
		if rhs < 0 && lp.badRow < 0 {
			lp.badRow = th
		}
		p.AddRow(linprog.LE, rhs, terms...)
	}
	return lp
}

// result reads the LP solution back and applies the Equation-22 rounding.
func (lp *freshBaselineLP) result(dc *model.DataCenter, tm *thermal.Model, cracOut []float64, sol *linprog.Solution) *BaselineResult {
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
