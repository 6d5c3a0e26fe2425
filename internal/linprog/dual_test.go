package linprog

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestDualKnown2D(t *testing.T) {
	// max 3x + 5y; x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18. Optimal (2,6), obj 36.
	// Known duals: row 0 slack (dual 0), row 1 dual 3/2, row 2 dual 1.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow(LE, 4, Term{x, 1})
	p.AddRow(LE, 12, Term{y, 2})
	p.AddRow(LE, 18, Term{x, 3}, Term{y, 2})
	sol := solveOK(t, p)
	want := []float64{0, 1.5, 1}
	for i, w := range want {
		if !approx(sol.Dual(i), w, 1e-8) {
			t.Errorf("Dual(%d) = %g, want %g", i, sol.Dual(i), w)
		}
	}
}

func TestDualMinimization(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10 (binding). Dual = 2 (x is cheaper):
	// raising the requirement by 1 costs 2.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, Inf, 2)
	y := p.AddVar("y", 0, Inf, 3)
	p.AddRow(GE, 10, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Dual(0), 2, 1e-8) {
		t.Errorf("Dual = %g, want 2", sol.Dual(0))
	}
}

func TestDualEqualityRow(t *testing.T) {
	// max x + 2y s.t. x + y = 5, x ≤ 3 (bound). Optimal y=5: dual of the
	// equality = 2 (one more unit of rhs goes to y).
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 3, 1)
	y := p.AddVar("y", 0, Inf, 2)
	p.AddRow(EQ, 5, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Dual(0), 2, 1e-8) {
		t.Errorf("Dual = %g, want 2", sol.Dual(0))
	}
}

// TestDualFiniteDifferenceProperty verifies the dual against a finite
// difference of the optimal objective on random knapsack LPs.
func TestDualFiniteDifferenceProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(6) + 2
		build := func(b float64) *Problem {
			r := rand.New(rand.NewSource(seed)) // same coefficients
			p := NewProblem(Maximize)
			terms := make([]Term, n)
			for i := 0; i < n; i++ {
				c := math.Round(r.Float64()*90)/10 + 0.1
				u := math.Round(r.Float64()*40)/10 + 0.2
				v := p.AddVar("", 0, u, c)
				terms[i] = Term{v, 1}
			}
			p.AddRow(LE, b, terms...)
			return p
		}
		b := 1 + rng.Float64()*5
		sol, err := build(b).Solve(context.Background(), nil)
		if err != nil {
			return false
		}
		const eps = 1e-6
		up, err := build(b+eps).Solve(context.Background(), nil)
		if err != nil {
			return false
		}
		fd := (up.Objective - sol.Objective) / eps
		// The dual matches the right-derivative of the optimal value.
		return math.Abs(fd-sol.Dual(0)) < 1e-3
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

func TestDualNonBindingRowIsZero(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 1, 1)
	p.AddRow(LE, 100, Term{x, 1}) // slack row, never binding
	sol := solveOK(t, p)
	if !approx(sol.Dual(0), 0, 1e-9) {
		t.Errorf("non-binding dual = %g, want 0", sol.Dual(0))
	}
}

// checkDualCertificate audits sol's duals as an optimality certificate for
// p: dual sign conventions per row operator, complementary slackness (a
// row with a nonzero dual must be binding), and strong duality — the
// Lagrangian bound g(y) = Σ_i y_i·β_i + Σ_j d_j·(active bound of j) must
// reproduce the primal objective. β_i is the row's rhs (for a range row,
// the side the activity sits on, which complementary slackness pins when
// y_i ≠ 0). Reduced costs d_j = c_j − Σ_i y_i·a_ij are recomputed from
// the original problem data, independent of the solver core.
func checkDualCertificate(t *testing.T, tag string, p *Problem, sol *Solution) {
	t.Helper()
	m, n := p.NumRows(), p.NumVars()
	maxMag := 1 + math.Abs(sol.Objective)

	// Row activities and per-row dual contributions.
	act := make([]float64, m)
	for i := 0; i < m; i++ {
		for _, tm := range p.rows[i].terms {
			act[i] += tm.Coef * sol.Value(tm.Var)
		}
		if a := math.Abs(sol.Dual(i) * act[i]); a > maxMag {
			maxMag = a
		}
	}
	tol := 1e-6 * maxMag

	// Sign conventions: the dual is ∂z*/∂rhs in the user's sense, so for
	// Minimize a ≤ row can only help (y ≤ 0) and a ≥ row can only cost
	// (y ≥ 0); Maximize flips both. Equality and range rows are free.
	g := 0.0
	for i := 0; i < m; i++ {
		y := sol.Dual(i)
		r := &p.rows[i]
		if !r.isRange {
			switch {
			case r.op == LE && p.sense == Minimize && y > tol:
				t.Fatalf("%s: row %d (≤, minimize) has dual %g > 0", tag, i, y)
			case r.op == LE && p.sense == Maximize && y < -tol:
				t.Fatalf("%s: row %d (≤, maximize) has dual %g < 0", tag, i, y)
			case r.op == GE && p.sense == Minimize && y < -tol:
				t.Fatalf("%s: row %d (≥, minimize) has dual %g < 0", tag, i, y)
			case r.op == GE && p.sense == Maximize && y > tol:
				t.Fatalf("%s: row %d (≥, maximize) has dual %g > 0", tag, i, y)
			}
		}
		if math.Abs(y) > tol {
			// Complementary slackness: a priced row must be binding.
			lo, hi := r.rhs, r.rhs
			if r.isRange {
				lo = r.rangeLo
			}
			if act[i] > lo-tol && act[i] < hi+tol &&
				math.Abs(act[i]-lo) > tol && math.Abs(act[i]-hi) > tol {
				t.Fatalf("%s: row %d has dual %g but slack activity %g in (%g, %g)",
					tag, i, y, act[i], lo, hi)
			}
		}
		if r.isRange {
			g += y * act[i] // binding side when y ≠ 0; slack rows add y≈0 noise
		} else {
			g += y * r.rhs
		}
	}

	// Variable part: each reduced cost pushes its variable to a bound, and
	// that bound's contribution closes the duality gap.
	for j := 0; j < n; j++ {
		d := p.cost[j]
		for i := 0; i < m; i++ {
			for _, tm := range p.rows[i].terms {
				if tm.Var == j {
					d -= sol.Dual(i) * tm.Coef
				}
			}
		}
		if math.Abs(d) <= tol {
			continue
		}
		// Which bound the sign of d pins the variable to, in the user sense:
		// minimize wants x_j low when d > 0; maximize wants it high.
		atLo := d > 0
		if p.sense == Maximize {
			atLo = !atLo
		}
		b := p.lo[j]
		if !atLo {
			b = p.hi[j]
		}
		if math.IsInf(b, 0) {
			t.Fatalf("%s: var %d has reduced cost %g against an infinite bound (dual infeasible)", tag, j, d)
		}
		if math.Abs(sol.Value(j)-b) > tol {
			t.Fatalf("%s: var %d has reduced cost %g but sits at %g, not bound %g",
				tag, j, d, sol.Value(j), b)
		}
		g += d * b
	}
	if math.Abs(g-sol.Objective) > 1e-5*maxMag {
		t.Fatalf("%s: strong duality gap: dual bound %v, primal objective %v (tol %g)",
			tag, g, sol.Objective, 1e-5*maxMag)
	}
}

// TestDualStrongDualityProperty runs the dual certificate audit over the
// seeded random-LP population: every Optimal solution's duals must satisfy
// sign conventions, complementary slackness, and strong duality against
// the original problem data.
func TestDualStrongDualityProperty(t *testing.T) {
	checked := 0
	for seed := int64(0); seed < 250; seed++ {
		p := randomLP(seed)
		sol, err := p.Solve(context.Background(), nil)
		if err != nil || sol.Status != Optimal {
			continue
		}
		checked++
		checkDualCertificate(t, fmt.Sprintf("seed %d", seed), p, sol)
	}
	if checked < 50 {
		t.Fatalf("only %d optimal instances audited — generator drifted", checked)
	}
}
