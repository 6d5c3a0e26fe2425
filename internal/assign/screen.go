package assign

import (
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
)

// outletBound prices outlet-temperature candidates of one search LP family
// — Stage 1 (Equation 9) or Equation 21 — by weak duality
// (linprog.Problem.DualBound), without solving them.
//
// Both families change with the outlets in exactly two places: the power
// row (coefficient nodeCoef[j]·varPow[k] on variable k of node j, right-hand
// side Pconst − baseConst) and the thermal rows' right-hand sides
// (redline_t − base_t − Σ_j G[t][j]·B_j). Every other coefficient and
// right-hand side is invariant. So setDuals runs the O(nonzeros) DualBound
// pass once per dual vector, on the skeleton with the power row's
// multiplier zeroed, which leaves the invariant rows' reduced costs; each
// bound then costs O(vars + rows) plus the thermal model's linearization.
//
// The returned bound includes DualBound's verification margin, so it holds
// for every objective an Optimal solve of the candidate's LP can report.
type outletBound struct {
	dc *model.DataCenter
	tm *thermal.Model
	p  *linprog.Problem // skeleton: invariant rows, then power, then thermal

	powerRow  int
	varNode   []int     // node of each variable
	varPow    []float64 // per-unit power of each variable (power-row scale)
	varLo     []float64
	varHi     []float64
	varMag    []float64 // 1 + max(|lo|, |hi|), as in DualBound's margin
	rowW      []float64 // Σ_k |a_rk|·varMag[k] of each row (power row unused)
	basePow   []float64
	redline   []float64
	gb        []float64 // Σ_j G[t][j]·B_j per thermal row
	thermRow0 int

	// Per dual vector (setDuals).
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

// init sizes b for skeleton p, whose variable k belongs to node varNode[k]
// and draws varPow[k] per unit in the power row.
func (b *outletBound) init(dc *model.DataCenter, tm *thermal.Model, p *linprog.Problem, varNode []int, varPow []float64) {
	ncn, nth := dc.NCN(), dc.NumThermal()
	nv, nr := p.NumVars(), p.NumRows()
	*b = outletBound{
		dc: dc, tm: tm, p: p,
		powerRow:  nr - nth - 1,
		thermRow0: nr - nth,
		varNode:   varNode,
		varPow:    varPow,
		varLo:     make([]float64, nv),
		varHi:     make([]float64, nv),
		varMag:    make([]float64, nv),
		rowW:      make([]float64, nr),
		basePow:   make([]float64, ncn),
		redline:   dc.Redline(),
		gb:        make([]float64, nth),
		y:         make([]float64, nr),
		dInv:      make([]float64, nv),
		nodeCoef:  make([]float64, ncn),
	}
	for k := 0; k < nv; k++ {
		lo, hi := p.VarBounds(k)
		b.varLo[k], b.varHi[k] = lo, hi
		b.varMag[k] = 1 + math.Max(math.Abs(lo), math.Abs(hi))
	}
	for r := 0; r < nr; r++ {
		for _, t := range p.RowTerms(r) {
			b.rowW[r] += math.Abs(t.Coef) * b.varMag[t.Var]
		}
	}
	for j := 0; j < ncn; j++ {
		b.basePow[j] = dc.NodeType(j).BasePower
	}
	g := tm.PowerSensitivity()
	for t := 0; t < nth; t++ {
		for j, gj := range g.Row(t) {
			b.gb[t] += gj * b.basePow[j]
		}
	}
}

// setDuals prices subsequent bounds with y (one dual per skeleton row).
// A vector of the wrong length disables the bound.
func (b *outletBound) setDuals(y []float64) {
	b.ready = b.p != nil && len(y) == len(b.y)
	if !b.ready {
		return
	}
	// Every row is ≤ in a maximization: clamping is max(y, 0), exactly
	// what DualBound applies.
	for r, v := range y {
		b.y[r] = math.Max(v, 0)
	}
	b.yPow = b.y[b.powerRow]
	b.y[b.powerRow] = 0
	b.p.DualBound(b.y, b.dInv)
	b.invG, b.invSlack = 0, 0
	for r := 0; r < b.powerRow; r++ {
		if y := b.y[r]; y != 0 {
			rhs := b.p.RHS(r)
			b.invG += y * rhs
			b.invSlack += y * (1 + math.Abs(rhs) + b.rowW[r])
		}
	}
}

// bound returns an upper bound on the optimum of the candidate LP at
// cracOut, or +Inf before setDuals. It does not allocate once warm.
func (b *outletBound) bound(cracOut []float64) float64 {
	if !b.ready {
		return math.Inf(1)
	}
	b.base = b.tm.InletBaseInto(cracOut, b.base)
	g, slack := b.invG, b.invSlack
	for t, gb := range b.gb {
		if y := b.y[b.thermRow0+t]; y != 0 {
			rhs := b.redline[t] - b.base[t] - gb
			g += y * rhs
			slack += y * (1 + math.Abs(rhs) + b.rowW[b.thermRow0+t])
		}
	}
	b.lin = b.tm.LinearizeCRACPowerInto(cracOut, b.base, b.lin)
	baseConst := linearPowerRow(b.basePow, b.lin, b.nodeCoef)

	yp, powW := b.yPow, 0.0
	for k, d := range b.dInv {
		a := b.nodeCoef[b.varNode[k]] * b.varPow[k]
		powW += math.Abs(a) * b.varMag[k]
		d -= yp * a
		if d != 0 {
			g += math.Max(d*b.varHi[k], d*b.varLo[k])
			slack += math.Abs(d) * b.varMag[k]
		}
	}
	if yp != 0 {
		rhs := b.dc.Pconst - baseConst
		g += yp * rhs
		slack += yp * (1 + math.Abs(rhs) + powW)
	}
	return g + linprog.BoundSlack*slack
}

// linearPowerRow fills nodeCoef with each node's power-row coefficient,
// 1 + Σ_i Coef_i[j], and returns the row's constant term
// Σ_j B_j + Σ_i (Const_i + Σ_j Coef_i[j]·B_j), accumulating in the order the
// Stage-1 and Equation-21 LPs always have.
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
