package linprog

import (
	"context"
	"math"
	"testing"
)

// oracleTol is the textbook solver's pivot and feasibility tolerance. The
// problems it checks have small integer data, so a fixed tolerance is
// adequate.
const oracleTol = 1e-9

// oracleResult is the textbook solver's verdict on a Problem.
type oracleResult struct {
	status    Status
	objective float64
	x         []float64
}

// oracleSolve solves p with the plainest simplex there is, sharing no code
// with the production core: every variable is shifted or split to y ≥ 0,
// every finite range becomes an explicit row, every row gets a slack (when
// it is an inequality) and an artificial, and a dense two-phase tableau
// runs Bland's rule to termination. Slow and memory-hungry, but short
// enough to check by eye; tests use it as the reference optimum.
func oracleSolve(p *Problem) oracleResult {
	// x_j = off_j + Σ sign·y over the y columns listed in ycols[j].
	type ycol struct {
		idx  int
		sign float64
	}
	nx := p.NumVars()
	off := make([]float64, nx)
	ycols := make([][]ycol, nx)
	ny := 0
	type srow struct {
		coef []float64 // over y, grown as columns appear
		op   Op
		rhs  float64
	}
	var rows []srow
	var boundRows [][2]float64 // (y index, upper bound) pairs
	for j := 0; j < nx; j++ {
		lo, hi := p.lo[j], p.hi[j]
		switch {
		case !math.IsInf(lo, -1):
			off[j] = lo
			ycols[j] = []ycol{{ny, 1}}
			if !math.IsInf(hi, 1) {
				boundRows = append(boundRows, [2]float64{float64(ny), hi - lo})
			}
			ny++
		case !math.IsInf(hi, 1):
			off[j] = hi
			ycols[j] = []ycol{{ny, -1}}
			ny++
		default:
			ycols[j] = []ycol{{ny, 1}, {ny + 1, -1}}
			ny += 2
		}
	}
	addRow := func(terms []Term, op Op, rhs float64) {
		coef := make([]float64, ny)
		for _, t := range terms {
			rhs -= t.Coef * off[t.Var]
			for _, yc := range ycols[t.Var] {
				coef[yc.idx] += yc.sign * t.Coef
			}
		}
		rows = append(rows, srow{coef, op, rhs})
	}
	for _, r := range p.rows {
		if r.isRange {
			addRow(r.terms, GE, r.rangeLo)
			addRow(r.terms, LE, r.rhs)
		} else {
			addRow(r.terms, r.op, r.rhs)
		}
	}
	for _, b := range boundRows {
		coef := make([]float64, ny)
		coef[int(b[0])] = 1
		rows = append(rows, srow{coef, LE, b[1]})
	}

	// Columns: y | one slack per inequality row | one artificial per row.
	m := len(rows)
	nSlack := 0
	for _, r := range rows {
		if r.op != EQ {
			nSlack++
		}
	}
	nArt0 := ny + nSlack
	n := nArt0 + m
	t := make([][]float64, m) // m rows of n coefficients plus the rhs
	basis := make([]int, m)
	s := ny
	for i, r := range rows {
		t[i] = make([]float64, n+1)
		copy(t[i], r.coef)
		switch r.op {
		case LE:
			t[i][s] = 1
			s++
		case GE:
			t[i][s] = -1
			s++
		}
		t[i][n] = r.rhs
		if r.rhs < 0 {
			for k := range t[i] {
				t[i][k] = -t[i][k]
			}
		}
		t[i][nArt0+i] = 1
		basis[i] = nArt0 + i
	}

	// pivot makes column q basic in row r.
	pivot := func(r, q int) {
		inv := 1 / t[r][q]
		for k := range t[r] {
			t[r][k] *= inv
		}
		for i := range t {
			if f := t[i][q]; i != r && f != 0 {
				for k := range t[i] {
					t[i][k] -= f * t[r][k]
				}
			}
		}
		basis[r] = q
	}
	// run minimizes cost over columns [0, allowed) with Bland's rule and
	// reports false when the objective is unbounded below.
	run := func(cost []float64, allowed int) bool {
		for {
			enter := -1
			for q := 0; q < allowed && enter < 0; q++ {
				dq := cost[q]
				for i, b := range basis {
					dq -= cost[b] * t[i][q]
				}
				if dq < -oracleTol {
					enter = q
				}
			}
			if enter < 0 {
				return true
			}
			leave, best := -1, math.Inf(1)
			for i := range t {
				if a := t[i][enter]; a > oracleTol {
					ratio := t[i][n] / a
					if ratio < best-oracleTol || (ratio < best+oracleTol && basis[i] < basis[leave]) {
						leave, best = i, ratio
					}
				}
			}
			if leave < 0 {
				return false
			}
			pivot(leave, enter)
		}
	}

	// Phase 1: minimize the artificial sum.
	cost := make([]float64, n)
	for k := nArt0; k < n; k++ {
		cost[k] = 1
	}
	run(cost, n)
	infeas := 0.0
	for i, b := range basis {
		if b >= nArt0 {
			infeas += t[i][n]
		}
	}
	if infeas > 1e-7 {
		return oracleResult{status: Infeasible}
	}
	// Drive zero-valued artificials out where a real column can replace
	// them; a row with none left is redundant and keeps its artificial.
	for i, b := range basis {
		if b < nArt0 {
			continue
		}
		for q := 0; q < nArt0; q++ {
			if math.Abs(t[i][q]) > oracleTol {
				pivot(i, q)
				break
			}
		}
	}

	// Phase 2: the real objective over y, minimized.
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	cost = make([]float64, n)
	for j := 0; j < nx; j++ {
		for _, yc := range ycols[j] {
			cost[yc.idx] += sign * yc.sign * p.cost[j]
		}
	}
	if !run(cost, nArt0) {
		return oracleResult{status: Unbounded}
	}
	y := make([]float64, n)
	for i, b := range basis {
		y[b] = t[i][n]
	}
	x := make([]float64, nx)
	obj := 0.0
	for j := range x {
		x[j] = off[j]
		for _, yc := range ycols[j] {
			x[j] += yc.sign * y[yc.idx]
		}
		obj += p.cost[j] * x[j]
	}
	return oracleResult{status: Optimal, objective: obj, x: x}
}

// checkAgainstOracle solves a fresh copy of build()'s problem with the
// production core and with oracleSolve: statuses must agree, optimal
// objectives must match within the verification tolerance, and every
// optimal solution must carry a valid KKT certificate. It reports whether
// the instance was optimal.
func checkAgainstOracle(t *testing.T, tag string, build func() *Problem) bool {
	t.Helper()
	p := build()
	sol, err := p.Solve(context.Background(), nil)
	want := oracleSolve(build())
	if sol.Status != want.status {
		t.Fatalf("%s: status %v (err %v), oracle %v", tag, sol.Status, err, want.status)
	}
	if sol.Status != Optimal {
		if err == nil {
			t.Fatalf("%s: status %v without an error", tag, sol.Status)
		}
		return false
	}
	if err != nil {
		t.Fatalf("%s: optimal solve returned error %v", tag, err)
	}
	tol := tolVerify * (1 + math.Abs(want.objective))
	if d := math.Abs(sol.Objective - want.objective); d > tol {
		t.Fatalf("%s: objective %v, oracle %v (|Δ| %g > %g)", tag, sol.Objective, want.objective, d, tol)
	}
	checkKKT(t, tag, p, sol)
	return true
}

// checkKKT audits sol as an optimality certificate for p: the primal
// residual (every bound and row within tolerance), then dual feasibility,
// complementary slackness and the duality gap via checkDualCertificate.
// Everything is recomputed from the problem data, independent of the core.
func checkKKT(t *testing.T, tag string, p *Problem, sol *Solution) {
	t.Helper()
	for j := 0; j < p.NumVars(); j++ {
		x := sol.Value(j)
		tol := 1e-7 * (1 + math.Abs(x))
		if math.IsNaN(x) || x < p.lo[j]-tol || x > p.hi[j]+tol {
			t.Fatalf("%s: x[%d] = %g outside [%g, %g]", tag, j, x, p.lo[j], p.hi[j])
		}
	}
	for i := range p.rows {
		r := &p.rows[i]
		ax, mag := 0.0, 1+math.Abs(r.rhs)
		for _, tm := range r.terms {
			ax += tm.Coef * sol.Value(tm.Var)
			mag += math.Abs(tm.Coef * sol.Value(tm.Var))
		}
		lo, hi := math.Inf(-1), r.rhs
		switch {
		case r.isRange:
			lo = r.rangeLo
		case r.op == GE:
			lo, hi = r.rhs, math.Inf(1)
		case r.op == EQ:
			lo = r.rhs
		}
		if tol := 1e-7 * mag; ax < lo-tol || ax > hi+tol {
			t.Fatalf("%s: row %d activity %g outside [%g, %g]", tag, i, ax, lo, hi)
		}
	}
	checkDualCertificate(t, tag, p, sol)
}

// fixtureLPs is a zoo of hand-built shapes: slack-only, artificial-forcing,
// equality, range, free-variable, degenerate, infeasible and unbounded.
func fixtureLPs() map[string]func() *Problem {
	return map[string]func() *Problem{
		"small-bounded": smallLP,
		"big-two-phase": bigLP,
		"klee-minty-8":  func() *Problem { return kleeMinty(8) },
		"equality": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, Inf, 1)
			y := p.AddVar("y", 0, Inf, 2)
			z := p.AddVar("z", 0, Inf, 3)
			p.AddRow(EQ, 10, Term{x, 1}, Term{y, 1}, Term{z, 1})
			p.AddRow(GE, 3, Term{y, 1}, Term{z, 2})
			return p
		},
		"range-row": func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, 8, 5)
			y := p.AddVar("y", 0, 8, 4)
			p.AddRangeRow(2, 9, Term{x, 1}, Term{y, 1})
			p.AddRow(LE, 12, Term{x, 2}, Term{y, 1})
			return p
		},
		"free-var": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", -Inf, Inf, 1)
			y := p.AddVar("y", 0, Inf, 1)
			p.AddRow(GE, -4, Term{x, 1}, Term{y, 1})
			p.AddRow(LE, 6, Term{x, 1}, Term{y, 2})
			p.AddRow(GE, 1, Term{y, 1})
			return p
		},
		"degenerate": func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, Inf, 1)
			y := p.AddVar("y", 0, Inf, 1)
			p.AddRow(LE, 4, Term{x, 1})
			p.AddRow(LE, 4, Term{x, 1}, Term{y, 0.0}) // duplicate binding row
			p.AddRow(LE, 4, Term{y, 1})
			return p
		},
		"infeasible": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddRow(GE, 2, Term{x, 1})
			return p
		},
		"unbounded": func() *Problem {
			p := NewProblem(Maximize)
			x := p.AddVar("x", 0, Inf, 1)
			y := p.AddVar("y", 0, Inf, 1)
			p.AddRow(LE, 1, Term{x, 1}, Term{y, -1})
			return p
		},
	}
}

// TestFixturesMatchOracle runs the fixture zoo through the core and the
// textbook oracle.
func TestFixturesMatchOracle(t *testing.T) {
	for name, build := range fixtureLPs() {
		t.Run(name, func(t *testing.T) {
			checkAgainstOracle(t, name, build)
		})
	}
}

// TestOracleKnownOptima pins the oracle itself to hand-solved problems, so
// a bug in the reference cannot hide behind an agreeing core.
func TestOracleKnownOptima(t *testing.T) {
	// max 3x + 5y; x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18: optimum (2, 6), 36.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow(LE, 4, Term{x, 1})
	p.AddRow(LE, 12, Term{y, 2})
	p.AddRow(LE, 18, Term{x, 3}, Term{y, 2})
	if got := oracleSolve(p); got.status != Optimal || !approx(got.objective, 36, 1e-9) ||
		!approx(got.x[0], 2, 1e-9) || !approx(got.x[1], 6, 1e-9) {
		t.Fatalf("oracle = %+v, want optimal (2, 6) at 36", got)
	}
	// min x − y with x free, y ∈ (−∞, 3], x + y ≥ −4, x ≥ −2 via a range
	// row: optimum x = −2, y = 3, objective −5.
	q := NewProblem(Minimize)
	x = q.AddVar("x", -Inf, Inf, 1)
	y = q.AddVar("y", -Inf, 3, -1)
	q.AddRow(GE, -4, Term{x, 1}, Term{y, 1})
	q.AddRangeRow(-2, 10, Term{x, 1})
	if got := oracleSolve(q); got.status != Optimal || !approx(got.objective, -5, 1e-9) {
		t.Fatalf("oracle = %+v, want optimal at −5", got)
	}
}
