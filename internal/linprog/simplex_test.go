package linprog

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func solveOK(t *testing.T, p *Problem) *Solution {
	t.Helper()
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	return sol
}

func approx(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestMaximizeSimple2D(t *testing.T) {
	// max 3x + 5y s.t. x ≤ 4; 2y ≤ 12; 3x + 2y ≤ 18 → (2, 6), obj 36.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow(LE, 4, Term{x, 1})
	p.AddRow(LE, 12, Term{y, 2})
	p.AddRow(LE, 18, Term{x, 3}, Term{y, 2})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 36, 1e-8) {
		t.Errorf("objective = %g, want 36", sol.Objective)
	}
	if !approx(sol.Value(x), 2, 1e-8) || !approx(sol.Value(y), 6, 1e-8) {
		t.Errorf("x=%g y=%g, want 2, 6", sol.Value(x), sol.Value(y))
	}
}

func TestMinimizeWithGE(t *testing.T) {
	// min 2x + 3y s.t. x + y ≥ 10; x ≥ 2; y ≥ 3 → x=7, y=3, obj 23.
	p := NewProblem(Minimize)
	x := p.AddVar("x", 2, Inf, 2)
	y := p.AddVar("y", 3, Inf, 3)
	p.AddRow(GE, 10, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 23, 1e-8) {
		t.Errorf("objective = %g, want 23", sol.Objective)
	}
	if !approx(sol.Value(x), 7, 1e-8) || !approx(sol.Value(y), 3, 1e-8) {
		t.Errorf("x=%g y=%g, want 7, 3", sol.Value(x), sol.Value(y))
	}
}

func TestEqualityRow(t *testing.T) {
	// max x + 2y s.t. x + y = 5, x ≤ 3 → x=0? no: max → y as large as
	// possible: y=5, x=0, obj 10.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 3, 1)
	y := p.AddVar("y", 0, Inf, 2)
	p.AddRow(EQ, 5, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 10, 1e-8) {
		t.Errorf("objective = %g, want 10", sol.Objective)
	}
	if !approx(sol.Value(x)+sol.Value(y), 5, 1e-8) {
		t.Errorf("equality violated: %g + %g", sol.Value(x), sol.Value(y))
	}
}

func TestVariableUpperBounds(t *testing.T) {
	// max x + y with x ≤ 1.5 (bound), y ≤ 2 (bound), x + y ≤ 3 → 3.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 1.5, 1)
	y := p.AddVar("y", 0, 2, 1)
	p.AddRow(LE, 3, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 3, 1e-8) {
		t.Errorf("objective = %g, want 3", sol.Objective)
	}
	if sol.Value(x) > 1.5+1e-9 || sol.Value(y) > 2+1e-9 {
		t.Errorf("bounds violated: x=%g y=%g", sol.Value(x), sol.Value(y))
	}
}

func TestBoundFlipOnly(t *testing.T) {
	// max x with 0 ≤ x ≤ 7 and a vacuous row: solved by a pure bound flip.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 7, 1)
	y := p.AddVar("y", 0, 1, 0)
	p.AddRow(LE, 100, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Value(x), 7, 1e-9) {
		t.Errorf("x = %g, want 7", sol.Value(x))
	}
}

func TestNegativeLowerBounds(t *testing.T) {
	// min x + y with x,y ∈ [-5, 5], x + y ≥ -3 → obj -3.
	p := NewProblem(Minimize)
	x := p.AddVar("x", -5, 5, 1)
	y := p.AddVar("y", -5, 5, 1)
	p.AddRow(GE, -3, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -3, 1e-8) {
		t.Errorf("objective = %g, want -3", sol.Objective)
	}
}

func TestFreeVariable(t *testing.T) {
	// min y s.t. y ≥ x - 4, y ≥ -x, x free → x=2, y=-2.
	p := NewProblem(Minimize)
	x := p.AddVar("x", math.Inf(-1), Inf, 0)
	y := p.AddVar("y", math.Inf(-1), Inf, 1)
	p.AddRow(GE, -4, Term{y, 1}, Term{x, -1})
	p.AddRow(GE, 0, Term{y, 1}, Term{x, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -2, 1e-8) {
		t.Errorf("objective = %g, want -2", sol.Objective)
	}
}

func TestRangeRow(t *testing.T) {
	// max x + y with 2 ≤ x + y ≤ 4, x ≤ 3, y ≤ 3 → 4.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 3, 1)
	y := p.AddVar("y", 0, 3, 1)
	p.AddRangeRow(2, 4, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 4, 1e-8) {
		t.Errorf("objective = %g, want 4", sol.Objective)
	}
	// And minimizing hits the lower side of the range.
	p2 := NewProblem(Minimize)
	x2 := p2.AddVar("x", 0, 3, 1)
	y2 := p2.AddVar("y", 0, 3, 1)
	p2.AddRangeRow(2, 4, Term{x2, 1}, Term{y2, 1})
	sol2 := solveOK(t, p2)
	if !approx(sol2.Objective, 2, 1e-8) {
		t.Errorf("min objective = %g, want 2", sol2.Objective)
	}
}

func TestInfeasible(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	p.AddRow(LE, 1, Term{x, 1})
	p.AddRow(GE, 2, Term{x, 1})
	sol, err := p.Solve(context.Background(), nil)
	if !errors.Is(err, ErrNotOptimal) {
		t.Fatalf("err = %v, want ErrNotOptimal", err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", sol.Status)
	}
}

func TestInfeasibleEquality(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, 1, 1)
	y := p.AddVar("y", 0, 1, 1)
	p.AddRow(EQ, 5, Term{x, 1}, Term{y, 1})
	sol, _ := p.Solve(context.Background(), nil)
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want Infeasible", sol.Status)
	}
}

func TestUnbounded(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 1)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddRow(GE, 1, Term{x, 1}, Term{y, 1})
	sol, err := p.Solve(context.Background(), nil)
	if err == nil {
		t.Fatal("expected error for unbounded problem")
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want Unbounded", sol.Status)
	}
}

func TestDegenerateLP(t *testing.T) {
	// Classic degenerate corner: multiple constraints meet at the optimum.
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 2)
	y := p.AddVar("y", 0, Inf, 1)
	p.AddRow(LE, 4, Term{x, 1})
	p.AddRow(LE, 4, Term{x, 1}, Term{y, 1})
	p.AddRow(LE, 8, Term{x, 2}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 8, 1e-8) {
		t.Errorf("objective = %g, want 8", sol.Objective)
	}
}

// TestBeale is Beale's classic cycling example; the Bland fallback must
// terminate it.
func TestBealeCycling(t *testing.T) {
	p := NewProblem(Minimize)
	x1 := p.AddVar("x1", 0, Inf, -0.75)
	x2 := p.AddVar("x2", 0, Inf, 150)
	x3 := p.AddVar("x3", 0, Inf, -0.02)
	x4 := p.AddVar("x4", 0, Inf, 6)
	p.AddRow(LE, 0, Term{x1, 0.25}, Term{x2, -60}, Term{x3, -0.04}, Term{x4, 9})
	p.AddRow(LE, 0, Term{x1, 0.5}, Term{x2, -90}, Term{x3, -0.02}, Term{x4, 3})
	p.AddRow(LE, 1, Term{x3, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, -0.05, 1e-8) {
		t.Errorf("objective = %g, want -0.05", sol.Objective)
	}
}

func TestTransportationProblem(t *testing.T) {
	// 2 suppliers (cap 20, 30) × 3 customers (demand 10, 25, 15),
	// costs: [[2,4,5],[3,1,7]]. Optimal cost: supply c2 from s2 (25×1),
	// c1 from s1 (10×2), c3 from s1 (10×5)+... let's just check against
	// a known optimum of 10*2 + 25*1 + 15*5 with s1 doing c1+c3 (25 ≤ 20
	// fails) — rely on solver consistency instead: verify feasibility and
	// optimality conditions numerically via a brute-force check below.
	p := NewProblem(Minimize)
	cost := [][]float64{{2, 4, 5}, {3, 1, 7}}
	cap := []float64{20, 30}
	dem := []float64{10, 25, 15}
	vars := make([][]int, 2)
	for s := range vars {
		vars[s] = make([]int, 3)
		for c := range vars[s] {
			vars[s][c] = p.AddVar("", 0, Inf, cost[s][c])
		}
	}
	for s, cp := range cap {
		p.AddRow(LE, cp, Term{vars[s][0], 1}, Term{vars[s][1], 1}, Term{vars[s][2], 1})
	}
	for c, d := range dem {
		p.AddRow(EQ, d, Term{vars[0][c], 1}, Term{vars[1][c], 1})
	}
	sol := solveOK(t, p)
	// Optimum: s2→c2:25, s2→c1:5, s1→c1:5, s1→c3:15
	// cost = 25 + 15 + 10 + 75 = 125.
	if !approx(sol.Objective, 125, 1e-7) {
		t.Errorf("objective = %g, want 125", sol.Objective)
	}
	// Demand satisfied exactly.
	for c, d := range dem {
		got := sol.Value(vars[0][c]) + sol.Value(vars[1][c])
		if !approx(got, d, 1e-7) {
			t.Errorf("demand %d: %g, want %g", c, got, d)
		}
	}
}

func TestConcavePWLEncoding(t *testing.T) {
	// Maximizing a concave PWL via segment variables must fill segments in
	// slope order. Figure-3 function: slopes 10, 8, 6 with lengths 0.05.
	// Budget 0.08 → first segment full (0.05) + 0.03 of second:
	// 0.5 + 0.24 = 0.74.
	p := NewProblem(Maximize)
	s1 := p.AddVar("s1", 0, 0.05, 10)
	s2 := p.AddVar("s2", 0, 0.05, 8)
	s3 := p.AddVar("s3", 0, 0.05, 6)
	p.AddRow(LE, 0.08, Term{s1, 1}, Term{s2, 1}, Term{s3, 1})
	sol := solveOK(t, p)
	if !approx(sol.Objective, 0.74, 1e-9) {
		t.Errorf("objective = %g, want 0.74", sol.Objective)
	}
	if !approx(sol.Value(s1), 0.05, 1e-9) || !approx(sol.Value(s2), 0.03, 1e-9) || !approx(sol.Value(s3), 0, 1e-9) {
		t.Errorf("segments = %g %g %g", sol.Value(s1), sol.Value(s2), sol.Value(s3))
	}
}

func TestSetCost(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 1, 1)
	y := p.AddVar("y", 0, 1, 0)
	p.AddRow(LE, 1, Term{x, 1}, Term{y, 1})
	sol := solveOK(t, p)
	if !approx(sol.Value(x), 1, 1e-9) {
		t.Fatalf("x = %g, want 1", sol.Value(x))
	}
	p.SetCost(x, 0)
	p.SetCost(y, 1)
	sol = solveOK(t, p)
	if !approx(sol.Value(y), 1, 1e-9) {
		t.Fatalf("after SetCost, y = %g, want 1", sol.Value(y))
	}
}

func TestAddVarBadBoundsMarksMalformed(t *testing.T) {
	p := NewProblem(Minimize)
	p.AddVar("x", 2, 1, 0)
	sol, err := p.Solve(context.Background(), nil)
	if err == nil || sol.Status != Malformed {
		t.Fatalf("Solve after AddVar(lo>hi) = (%v, %v), want Malformed error", sol.Status, err)
	}
}

func TestAddRowPanicsOnUnknownVar(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddRow with unknown var did not panic")
		}
	}()
	NewProblem(Minimize).AddRow(LE, 1, Term{0, 1})
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		Optimal: "optimal", Infeasible: "infeasible",
		Unbounded: "unbounded", IterLimit: "iteration limit",
	} {
		if s.String() != want {
			t.Errorf("Status(%d).String() = %q, want %q", s, s.String(), want)
		}
	}
}

// --- Randomized cross-validation against brute force -----------------

// bruteForceBoxLP maximizes c·x over box [0,u]^n intersected with rows
// a·x ≤ b by dense sampling of the box corners plus projections; for the
// special structure below (single knapsack row), the exact optimum is the
// greedy fill, which we compute directly.
func greedyKnapsackOpt(c, u []float64, b float64) float64 {
	type item struct{ c, u float64 }
	items := make([]item, len(c))
	for i := range c {
		items[i] = item{c[i], u[i]}
	}
	// Sort by density descending (coefficients are all 1 in the row).
	for i := 0; i < len(items); i++ {
		for j := i + 1; j < len(items); j++ {
			if items[j].c > items[i].c {
				items[i], items[j] = items[j], items[i]
			}
		}
	}
	obj, rem := 0.0, b
	for _, it := range items {
		if it.c <= 0 || rem <= 0 {
			break
		}
		take := math.Min(it.u, rem)
		obj += it.c * take
		rem -= take
	}
	return obj
}

// Property: for random fractional-knapsack LPs (max c·x, Σx ≤ b,
// 0 ≤ x ≤ u), the simplex matches the greedy optimum.
func TestKnapsackProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(12) + 1
		c := make([]float64, n)
		u := make([]float64, n)
		terms := make([]Term, n)
		p := NewProblem(Maximize)
		for i := 0; i < n; i++ {
			c[i] = math.Round(rng.Float64()*100) / 10
			u[i] = math.Round(rng.Float64()*50)/10 + 0.1
			v := p.AddVar("", 0, u[i], c[i])
			terms[i] = Term{v, 1}
		}
		b := rng.Float64() * 10
		p.AddRow(LE, b, terms...)
		sol, err := p.Solve(context.Background(), nil)
		if err != nil {
			return false
		}
		want := greedyKnapsackOpt(c, u, b)
		return approx(sol.Objective, want, 1e-6)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: random feasible LPs (constraints generated around a known
// interior point) are reported feasible and the returned point satisfies
// all constraints and bounds.
func TestRandomFeasibleLPProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := rng.Intn(8) + 2
		m := rng.Intn(8) + 1
		p := NewProblem(Maximize)
		x0 := make([]float64, n) // known feasible point
		for i := 0; i < n; i++ {
			x0[i] = rng.Float64() * 5
			p.AddVar("", 0, x0[i]+rng.Float64()*5, rng.NormFloat64())
		}
		rows := make([][]float64, m)
		ops := make([]Op, m)
		rhs := make([]float64, m)
		for r := 0; r < m; r++ {
			rows[r] = make([]float64, n)
			terms := make([]Term, 0, n)
			dot := 0.0
			for i := 0; i < n; i++ {
				a := rng.NormFloat64()
				rows[r][i] = a
				dot += a * x0[i]
				terms = append(terms, Term{i, a})
			}
			switch rng.Intn(3) {
			case 0:
				ops[r], rhs[r] = LE, dot+rng.Float64()
			case 1:
				ops[r], rhs[r] = GE, dot-rng.Float64()
			default:
				ops[r], rhs[r] = EQ, dot
			}
			p.AddRow(ops[r], rhs[r], terms...)
		}
		sol, err := p.Solve(context.Background(), nil)
		if err != nil {
			// Unbounded is possible (upper bounds are finite, so it is
			// not, actually — all vars bounded ⇒ bounded objective).
			return false
		}
		// Verify constraint satisfaction.
		for r := 0; r < m; r++ {
			dot := 0.0
			for i := 0; i < n; i++ {
				dot += rows[r][i] * sol.Value(i)
			}
			switch ops[r] {
			case LE:
				if dot > rhs[r]+1e-6 {
					return false
				}
			case GE:
				if dot < rhs[r]-1e-6 {
					return false
				}
			case EQ:
				if !approx(dot, rhs[r], 1e-6) {
					return false
				}
			}
		}
		// Objective at least as good as the known feasible point.
		objX0 := 0.0
		for i := 0; i < n; i++ {
			objX0 += p.cost[i] * x0[i]
		}
		return sol.Objective >= objX0-1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: solving the same problem twice gives the same answer
// (Solve must not mutate the Problem).
func TestSolveIsRepeatable(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, Inf, 3)
	y := p.AddVar("y", 0, Inf, 5)
	p.AddRow(LE, 4, Term{x, 1})
	p.AddRow(LE, 12, Term{y, 2})
	p.AddRow(LE, 18, Term{x, 3}, Term{y, 2})
	a := solveOK(t, p)
	b := solveOK(t, p)
	if a.Objective != b.Objective || a.Value(x) != b.Value(x) {
		t.Fatal("repeat Solve differs")
	}
}

func TestValuesCopy(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 2, 1)
	p.AddRow(LE, 5, Term{x, 1})
	sol := solveOK(t, p)
	vs := sol.Values()
	vs[0] = -99
	if sol.Value(x) == -99 {
		t.Fatal("Values must return a copy")
	}
}

func BenchmarkSimplexStage1Scale(b *testing.B) {
	// Shaped like a Stage-1 LP at paper scale: 150 nodes × 4 segments with
	// a shared power row and 153 "thermal" rows.
	rng := rand.New(rand.NewSource(1))
	build := func() *Problem {
		p := NewProblem(Maximize)
		var powerTerms []Term
		thermal := make([][]Term, 153)
		for node := 0; node < 150; node++ {
			slope := 10.0
			for seg := 0; seg < 4; seg++ {
				v := p.AddVar("", 0, 0.44, slope)
				slope *= 0.8
				powerTerms = append(powerTerms, Term{v, 1})
				for r := 0; r < 4; r++ {
					tr := rng.Intn(153)
					thermal[tr] = append(thermal[tr], Term{v, rng.Float64() * 0.1})
				}
			}
		}
		p.AddRow(LE, 100, powerTerms...)
		for _, terms := range thermal {
			if len(terms) > 0 {
				p.AddRow(LE, 25, terms...)
			}
		}
		return p
	}
	p := build()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.Solve(context.Background(), nil); err != nil {
			b.Fatal(err)
		}
	}
}
