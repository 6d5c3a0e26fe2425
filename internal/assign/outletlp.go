package assign

import (
	"context"
	"fmt"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
)

// outletLP is one LP of an outlet-temperature search family — Stage 1
// (Equation 9) or Equation 21 — kept as a skeleton and patched per
// candidate. Both families share the same outlet-dependent part: a
// linearized power row whose coefficient on variable k is
// nodeCoef[varNode[k]]·varPow[k] (right-hand side Pconst − baseConst), and
// one redline row per thermal unit with invariant coefficients
// G[t][j]·varPow[k] and right-hand side redline_t − base_t − Σ_j G[t][j]·B_j.
// Every other row, every bound and every cost is invariant, so each solve
// only rewrites the power row's coefficients and the right-hand sides
// before re-running the simplex on a workspace sized once.
//
// A patched skeleton is bit-identical to a fresh build at the same
// outlets: init adds each row's terms node by node, each node's variables
// in index order, which is the order both families' builders always used,
// and patch repeats their floating-point operations in their order. That
// matters because alternate optima with equal objectives would still
// change what the callers read back.
//
// An outletLP is NOT safe for concurrent use: it owns one skeleton and one
// simplex workspace.
type outletLP struct {
	dc *model.DataCenter
	tm *thermal.Model
	p  *linprog.Problem

	varNode  []int     // varNode[k]: compute node of variable k
	varPow   []float64 // varPow[k]: power per unit of variable k
	powerRow int       // the power row; the thermal rows follow it
	basePow  []float64 // basePow[j] = dc.NodeType(j).BasePower
	redline  []float64 // dc.Redline()

	// ws holds the simplex tableau buffers reused across solves. It is
	// sized once, at the first solve, for the skeleton's worst-case shape
	// (see solve), so no solve grows it.
	ws       linprog.Workspace
	reserved bool
	// sol is the latest successful solve (nil after a failed one); it
	// aliases ws and its duals seed the search's bounds. badRow is the
	// thermal row base power alone violated in the latest failed patch.
	sol    *linprog.Solution
	badRow int
	bnd    outletBound

	// Scratch for patch. baseConst keeps the power row's constant term
	// from the latest patch so callers can report the linearized power
	// ledger without recomputing it.
	base      []float64
	lin       []thermal.LinearCRACPower
	nodeCoef  []float64
	baseConst float64
}

// errBaseRedline is the allocation-free error solve returns when a redline
// is violated by base power alone; redlineErr names the row and outlets.
var errBaseRedline = fmt.Errorf("assign: redline violated by base power alone")

// init takes p, holding the family's variables and invariant rows, and
// appends the power row and then one thermal row per thermal unit, for
// variable k of node varNode[k] drawing varPow[k] per unit.
func (o *outletLP) init(dc *model.DataCenter, tm *thermal.Model, p *linprog.Problem, varNode []int, varPow []float64) {
	ncn := dc.NCN()
	o.dc, o.tm, o.p = dc, tm, p
	o.varNode, o.varPow = varNode, varPow
	o.powerRow = p.NumRows()
	o.basePow = make([]float64, ncn)
	o.redline = dc.Redline()
	o.nodeCoef = make([]float64, ncn)
	for j := range o.basePow {
		o.basePow[j] = dc.NodeType(j).BasePower
	}
	nodeVars := make([][]int, ncn)
	for k, j := range varNode {
		nodeVars[j] = append(nodeVars[j], k)
	}

	// The power row comes first among the outlet-dependent rows (its dual
	// is the power shadow price). Its coefficients and right-hand side are
	// placeholders that patch rewrites.
	var terms []linprog.Term
	for _, vars := range nodeVars {
		for _, k := range vars {
			terms = append(terms, linprog.Term{Var: k, Coef: varPow[k]})
		}
	}
	p.AddRow(linprog.LE, 0, terms...)

	// Thermal rows: the coefficients do not depend on the outlets, so they
	// are final; only each row's right-hand side is patched.
	g := tm.PowerSensitivity()
	for t := 0; t < dc.NumThermal(); t++ {
		terms = terms[:0]
		for j, vars := range nodeVars {
			gj := g.At(t, j)
			if gj == 0 {
				continue
			}
			for _, k := range vars {
				terms = append(terms, linprog.Term{Var: k, Coef: gj * varPow[k]})
			}
		}
		p.AddRow(linprog.LE, 0, terms...)
	}
}

// patch rewrites the outlet-dependent parts of the skeleton for cracOut:
// the power row's coefficients and right-hand side, and every thermal
// row's right-hand side. It returns the first thermal row whose redline is
// violated by base power alone (infeasible outlets, LP left partially
// patched), or −1.
func (o *outletLP) patch(cracOut []float64) (badRow int) {
	// Power row (linearized CRAC power):
	// Σ_j (B_j + u_j) + Σ_i [Const_i + Σ_j Coef_i[j]·(B_j + u_j)] ≤ Pconst.
	o.base = o.tm.InletBaseInto(cracOut, o.base)
	o.lin = o.tm.LinearizeCRACPowerInto(cracOut, o.base, o.lin)
	o.baseConst = linearPowerRow(o.basePow, o.lin, o.nodeCoef)
	terms := o.p.RowTerms(o.powerRow)
	for i := range terms {
		k := terms[i].Var
		terms[i].Coef = o.nodeCoef[o.varNode[k]] * o.varPow[k]
	}
	o.p.SetRHS(o.powerRow, o.dc.Pconst-o.baseConst)

	// Thermal rows: rhs_t = redline_t − base_t(cracOut) − Σ_j G[t][j]·B_j,
	// subtracted term by term as the builders always have.
	g := o.tm.PowerSensitivity()
	for t, red := range o.redline {
		rhs := red - o.base[t]
		for j, gj := range g.Row(t) {
			rhs -= gj * o.basePow[j]
		}
		if rhs < 0 {
			return t
		}
		o.p.SetRHS(o.powerRow+1+t, rhs)
	}
	return -1
}

// solve patches the skeleton for cracOut and solves it through the
// workspace. The solution aliases the workspace until the next solve. A
// redline that base power alone violates fails with errBaseRedline.
//
// The first solve sizes the workspace for the skeleton's worst-case shape.
// How many artificials a solve needs depends on the outlets, so without it
// a workspace would grow whenever a candidate needed more than any before,
// and a search worker's Stats.AllocBytes would depend on which candidates
// a parallel search happened to hand it. Reserving late rather than in
// init keeps LPs that never solve (a fleet's monolithic base) from holding
// a full tableau.
func (o *outletLP) solve(ctx context.Context, cracOut []float64) (*linprog.Solution, error) {
	if !o.reserved {
		o.ws.Reserve(o.p.NumRows(), o.p.NumVars())
		o.reserved = true
	}
	o.sol = nil
	if o.badRow = o.patch(cracOut); o.badRow >= 0 {
		return nil, errBaseRedline
	}
	sol, err := o.p.SolveInto(ctx, &o.ws)
	if err != nil {
		return nil, err
	}
	o.sol = sol
	return sol, nil
}

// redlineErr expands errBaseRedline from the latest solve at cracOut into
// an error naming the violated row and the outlets; other errors pass
// through.
func (o *outletLP) redlineErr(err error, cracOut []float64) error {
	if err == errBaseRedline {
		return fmt.Errorf("assign: redline %d violated by base power alone at outlets %v", o.badRow, cracOut)
	}
	return err
}

// AppendDuals appends the row duals of the latest successful solve (the
// invariant rows, then the power row, then the thermal rows) to dst; it
// returns dst unchanged when the latest solve failed.
func (o *outletLP) AppendDuals(dst []float64) []float64 {
	if o.sol == nil {
		return dst
	}
	return o.sol.AppendDuals(dst)
}
