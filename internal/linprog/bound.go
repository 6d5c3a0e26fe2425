package linprog

import "math"

// BoundSlack is the relative slack DualBound's margin applies: twice the
// verification tolerance every Optimal solution is checked against. One
// factor of the tolerance covers how far a verified solution may sit
// outside its rows and bounds; the second absorbs the rounding of the bound
// itself and the second-order growth of |x| past its bounds, both orders of
// magnitude below it.
const BoundSlack = 2 * tolVerify

// DualBound returns a weak-duality bound on the optimum of p, priced by the
// row multipliers y (one per row, in the sign convention of
// Solution.Dual). For a Maximize problem every Objective an Optimal solve
// of p can return is at most g + margin; for a Minimize problem it is at
// least g − margin. Reading the Maximize case with ≤ rows,
//
//	g(y) = Σ_r y_r·b_r + Σ_j max(d_j·u_j, d_j·l_j),   d = c − Aᵀy,
//
// bounds c·x for every x with Ax ≤ b and l ≤ x ≤ u whenever y ≥ 0. y is
// first clamped onto the sign each row admits (≥ 0 on a ≤ row of a
// maximization, ≤ 0 on a ≥ row, free on equalities; range rows price the
// side the sign selects), so any vector — a stale dual, another problem's
// dual, or noise — yields a valid bound; the optimal duals of p itself make
// it tight (strong duality).
//
// margin covers the solver rather than the mathematics: an Optimal solution
// passes verification when each row and bound holds within tolVerify of
// its magnitude, so its objective may exceed the exact optimum by at most
// BoundSlack·(Σ_r |y_r|·(1 + |b_r| + Σ_j |a_rj|·m_j) + Σ_j |d_j|·m_j),
// with m_j = 1 + max(|l_j|, |u_j|).
//
// d (length NumVars) receives the reduced costs c − Aᵀy of the clamped y;
// the computation is one pass over the nonzeros and does not allocate. An
// infinite bound facing a nonzero reduced cost makes g infinite.
func (p *Problem) DualBound(y, d []float64) (g, margin float64) {
	s := 1.0
	if p.sense == Minimize {
		s = -1
	}
	copy(d, p.cost)
	var rowSlack float64
	for r := range p.rows {
		rw := &p.rows[r]
		yr, beta := clampDual(rw, s*y[r])
		if yr == 0 {
			continue
		}
		w := 1 + math.Abs(rw.rhs)
		for _, t := range rw.terms {
			d[t.Var] -= s * yr * t.Coef
			w += math.Abs(t.Coef) * boundMag(p.lo[t.Var], p.hi[t.Var])
		}
		g += yr * beta
		rowSlack += math.Abs(yr) * w
	}
	var colSlack float64
	for j, dj := range d {
		if dj == 0 {
			continue
		}
		sd := s * dj
		g += math.Max(sd*p.hi[j], sd*p.lo[j])
		colSlack += math.Abs(dj) * boundMag(p.lo[j], p.hi[j])
	}
	return s * g, BoundSlack * (rowSlack + colSlack)
}

// clampDual projects the maximization-frame multiplier y of row rw onto the
// sign the row admits and returns it with the right-hand side it prices.
func clampDual(rw *row, y float64) (float64, float64) {
	switch {
	case rw.isRange:
		if y < 0 {
			return y, rw.rangeLo
		}
	case rw.op == LE:
		y = math.Max(y, 0)
	case rw.op == GE:
		y = math.Min(y, 0)
	}
	return y, rw.rhs
}

// boundMag is 1 + max(|lo|, |hi|), the magnitude the verification tolerance
// scales with for a variable in [lo, hi].
func boundMag(lo, hi float64) float64 {
	return 1 + math.Max(math.Abs(lo), math.Abs(hi))
}
