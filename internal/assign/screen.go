package assign

import (
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/thermal"
)

// outletBound is an outletLP's weak-duality screen: it prices candidates of
// the LP's family (linprog.Problem.DualBound) without solving them.
//
// A candidate's LP differs from the skeleton only in the power row
// (coefficients and right-hand side) and the thermal rows' right-hand
// sides (see outletLP). So SetBoundDuals runs the O(nonzeros) DualBound
// pass once per dual vector, on the skeleton with the power row's
// multiplier zeroed, which leaves the invariant rows' reduced costs; each
// Bound then costs O(vars + rows) plus the thermal model's linearization.
// It linearizes into its own scratch, so a bound never disturbs the LP's
// latest patch.
//
// The returned bound includes DualBound's verification margin, so it holds
// for every objective an Optimal solve of the candidate's LP can report.
type outletBound struct {
	// Sized on the first SetBoundDuals.
	varMag []float64 // 1 + max(|lo|, |hi|), as in DualBound's margin
	rowW   []float64 // Σ_k |a_rk|·varMag[k] of each row (power row unused)
	gb     []float64 // Σ_j G[t][j]·B_j per thermal row

	// Per dual vector.
	ready    bool
	y        []float64 // clamped duals; y[powerRow] holds 0, yPow the power dual
	yPow     float64
	dInv     []float64 // reduced costs of the invariant rows
	invG     float64   // Σ over invariant rows of y_r·b_r
	invSlack float64   // Σ over invariant rows of y_r·(1 + |b_r| + W_r)

	// Scratch for the per-candidate linearization.
	base     []float64
	lin      []thermal.LinearCRACPower
	nodeCoef []float64
}

// initBound sizes the bound for the skeleton.
func (o *outletLP) initBound() {
	b, p := &o.bnd, o.p
	nv, nr := p.NumVars(), p.NumRows()
	*b = outletBound{
		varMag:   make([]float64, nv),
		rowW:     make([]float64, nr),
		gb:       make([]float64, len(o.redline)),
		y:        make([]float64, nr),
		dInv:     make([]float64, nv),
		nodeCoef: make([]float64, len(o.basePow)),
	}
	for k := range b.varMag {
		lo, hi := p.VarBounds(k)
		b.varMag[k] = 1 + math.Max(math.Abs(lo), math.Abs(hi))
	}
	for r := range b.rowW {
		for _, t := range p.RowTerms(r) {
			b.rowW[r] += math.Abs(t.Coef) * b.varMag[t.Var]
		}
	}
	g := o.tm.PowerSensitivity()
	for t := range b.gb {
		for j, gj := range g.Row(t) {
			b.gb[t] += gj * o.basePow[j]
		}
	}
}

// SetBoundDuals prices subsequent Bound calls with the dual vector y of
// any solve of the same family over the same scenario (see AppendDuals).
// A vector of the wrong length disables the bound. The first call sizes
// the bound's buffers; later calls do not allocate.
func (o *outletLP) SetBoundDuals(y []float64) {
	b := &o.bnd
	if b.y == nil {
		o.initBound()
	}
	b.ready = len(y) == len(b.y)
	if !b.ready {
		return
	}
	// Every row is ≤ in a maximization: clamping is max(y, 0), exactly
	// what DualBound applies.
	for r, v := range y {
		b.y[r] = math.Max(v, 0)
	}
	b.yPow = b.y[o.powerRow]
	b.y[o.powerRow] = 0
	o.p.DualBound(b.y, b.dInv)
	b.invG, b.invSlack = 0, 0
	for r := 0; r < o.powerRow; r++ {
		if y := b.y[r]; y != 0 {
			rhs := o.p.RHS(r)
			b.invG += y * rhs
			b.invSlack += y * (1 + math.Abs(rhs) + b.rowW[r])
		}
	}
}

// Bound returns an upper bound on the optimum a solve at cracOut can
// report, from the weak dual priced at the SetBoundDuals vector (+Inf
// before the first SetBoundDuals). It solves nothing, leaves the skeleton
// untouched, and does not allocate once warm.
func (o *outletLP) Bound(cracOut []float64) float64 {
	b := &o.bnd
	if !b.ready {
		return math.Inf(1)
	}
	thermRow0 := o.powerRow + 1
	b.base = o.tm.InletBaseInto(cracOut, b.base)
	g, slack := b.invG, b.invSlack
	for t, gb := range b.gb {
		if y := b.y[thermRow0+t]; y != 0 {
			rhs := o.redline[t] - b.base[t] - gb
			g += y * rhs
			slack += y * (1 + math.Abs(rhs) + b.rowW[thermRow0+t])
		}
	}
	b.lin = o.tm.LinearizeCRACPowerInto(cracOut, b.base, b.lin)
	baseConst := linearPowerRow(o.basePow, b.lin, b.nodeCoef)

	yp, powW := b.yPow, 0.0
	for k, d := range b.dInv {
		a := b.nodeCoef[o.varNode[k]] * o.varPow[k]
		powW += math.Abs(a) * b.varMag[k]
		d -= yp * a
		if d != 0 {
			lo, hi := o.p.VarBounds(k)
			g += math.Max(d*hi, d*lo)
			slack += math.Abs(d) * b.varMag[k]
		}
	}
	if yp != 0 {
		rhs := o.dc.Pconst - baseConst
		g += yp * rhs
		slack += yp * (1 + math.Abs(rhs) + powW)
	}
	return g + linprog.BoundSlack*slack
}

// linearPowerRow fills nodeCoef with each node's power-row coefficient,
// 1 + Σ_i Coef_i[j], and returns the row's constant term
// Σ_j B_j + Σ_i (Const_i + Σ_j Coef_i[j]·B_j), accumulating in the order the
// Stage-1, Equation-21 and minimum-power LPs always have.
func linearPowerRow(basePow []float64, lin []thermal.LinearCRACPower, nodeCoef []float64) float64 {
	baseConst := 0.0
	for j, b := range basePow {
		nodeCoef[j] = 1
		baseConst += b
	}
	for _, l := range lin {
		baseConst += l.Const
		for j, c := range l.Coef {
			nodeCoef[j] += c
			baseConst += c * basePow[j]
		}
	}
	return baseConst
}
