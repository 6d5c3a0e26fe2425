package linprog

import (
	"context"
	"errors"
	"math"
	"testing"
)

// kleeMinty builds the n-dimensional Klee–Minty cube
//
//	max Σ_j 2^(n-j) x_j   s.t.   2·Σ_{i<j} 2^(j-i) x_i + x_j ≤ 5^j,  x ≥ 0,
//
// on which Dantzig pricing visits all 2^n−1 vertices while Bland's rule
// terminates in a few hundred pivots — the deterministic stand-in for a
// stalling solve that only the anti-cycling restart can finish.
func kleeMinty(n int) *Problem {
	p := NewProblem(Maximize)
	for j := 1; j <= n; j++ {
		p.AddVar("", 0, Inf, math.Pow(2, float64(n-j)))
	}
	for j := 1; j <= n; j++ {
		var terms []Term
		for i := 1; i < j; i++ {
			terms = append(terms, Term{i - 1, math.Pow(2, float64(j-i+1))})
		}
		terms = append(terms, Term{j - 1, 1})
		p.AddRow(LE, math.Pow(5, float64(j)), terms...)
	}
	return p
}

// TestBlandRestartRegression pins the degradation behavior of an exhausted
// pivot budget: on the n=10 Klee–Minty cube with MaxIter=300, Dantzig
// pricing needs 1023 pivots (fails), Bland needs 177 (fits), so Solve only
// returns Optimal because it restarts under Bland's rule. If the restart
// is ever removed or broken, this test fails with an iteration-limit
// error.
func TestBlandRestartRegression(t *testing.T) {
	const n, budget = 10, 300

	// The plain single pass must exhaust the budget...
	plain := kleeMinty(n)
	plain.MaxIter = budget
	sol, _, err := plain.solveOnce(nil, &Workspace{}, false, false)
	if err == nil || sol.Status != IterLimit {
		t.Fatalf("single Dantzig pass = (%v, %v), want IterLimit — budget no longer tight, adjust the test", sol.Status, err)
	}

	// ...and the public Solve must recover via the Bland restart.
	p := kleeMinty(n)
	p.MaxIter = budget
	sol, err = p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve with Bland restart: %v", err)
	}
	if !sol.Restarted {
		t.Error("solution not marked Restarted")
	}
	want := math.Pow(5, n)
	if math.Abs(sol.Objective-want) > 1e-6*want {
		t.Errorf("objective = %g, want %g", sol.Objective, want)
	}
}

// TestIterLimitStillReported checks that a genuinely too-small budget (too
// small even for Bland) surfaces as an iteration-limit StatusError rather
// than hanging or misclassifying as cycling when no stalling occurred.
func TestIterLimitStillReported(t *testing.T) {
	p := kleeMinty(10)
	p.MaxIter = 50 // below Bland's 177 pivots too
	sol, err := p.Solve(context.Background(), nil)
	if err == nil {
		t.Fatal("want error")
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Status != IterLimit {
		t.Fatalf("err = %v, want StatusError{IterLimit}", err)
	}
	if errors.Is(err, ErrCycling) {
		t.Errorf("non-degenerate budget exhaustion misclassified as cycling: %v", err)
	}
	if !errors.Is(err, ErrNotOptimal) {
		t.Errorf("StatusError does not match ErrNotOptimal: %v", err)
	}
	if sol.Status != IterLimit {
		t.Errorf("sol.Status = %v, want IterLimit", sol.Status)
	}
}

func TestMalformedProblems(t *testing.T) {
	cases := map[string]func() *Problem{
		"nan-cost": func() *Problem {
			p := NewProblem(Minimize)
			p.AddVar("x", 0, 1, math.NaN())
			return p
		},
		"inf-cost": func() *Problem {
			p := NewProblem(Minimize)
			p.AddVar("x", 0, 1, math.Inf(1))
			return p
		},
		"nan-bound": func() *Problem {
			p := NewProblem(Minimize)
			p.AddVar("x", math.NaN(), 1, 0)
			return p
		},
		"inverted-bounds": func() *Problem {
			p := NewProblem(Minimize)
			p.AddVar("x", 2, 1, 0)
			return p
		},
		"nan-rhs": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddRow(LE, math.NaN(), Term{x, 1})
			return p
		},
		"inf-rhs": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddRow(GE, math.Inf(-1), Term{x, 1})
			return p
		},
		"nan-coef": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddRow(LE, 1, Term{x, math.NaN()})
			return p
		},
		"nan-set-cost": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.SetCost(x, math.NaN())
			return p
		},
		"inverted-range": func() *Problem {
			p := NewProblem(Minimize)
			x := p.AddVar("x", 0, 1, 1)
			p.AddRangeRow(2, 1, Term{x, 1})
			return p
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			p := mk()
			sol, err := p.Solve(context.Background(), nil)
			if err == nil {
				t.Fatal("Solve accepted a malformed problem")
			}
			if sol.Status != Malformed {
				t.Errorf("status = %v, want Malformed", sol.Status)
			}
			if !errors.Is(err, ErrMalformed) {
				t.Errorf("errors.Is(err, ErrMalformed) = false for %v", err)
			}
			if !errors.Is(err, ErrNotOptimal) {
				t.Errorf("errors.Is(err, ErrNotOptimal) = false for %v", err)
			}
			if p.Defect() == nil {
				t.Error("Defect() = nil after malformed insertion")
			}
		})
	}
}

// TestDefectClearsAfterRepair: a bad SetRHS poisons the problem, but a
// warm-solver skeleton legitimately overwrites right-hand sides between
// solves — once the value is repaired, Solve must succeed again.
func TestDefectClearsAfterRepair(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 1)
	p.AddRow(LE, 5, Term{x, 1})
	p.SetRHS(0, math.NaN())
	if _, err := p.Solve(context.Background(), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("Solve with NaN rhs: err = %v, want ErrMalformed", err)
	}
	p.SetRHS(0, 5)
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("Solve after repair: %v", err)
	}
	if math.Abs(sol.Objective-5) > 1e-9 {
		t.Errorf("objective = %g, want 5", sol.Objective)
	}
	if p.Defect() != nil {
		t.Errorf("Defect() = %v after repair, want nil", p.Defect())
	}
}

func TestSolveContextCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	p := kleeMinty(8)
	sol, err := p.Solve(ctx, nil)
	if err == nil {
		t.Fatal("want error from canceled context")
	}
	if sol.Status != Canceled {
		t.Errorf("status = %v, want Canceled", sol.Status)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
	var st *StatusError
	if !errors.As(err, &st) || st.Status != Canceled {
		t.Errorf("err = %v, want StatusError{Canceled}", err)
	}
}

// countdownCtx reports Canceled after its Err method has been polled a
// fixed number of times. The solver only consults ctx.Err() at its
// cooperative check points, so this cancels deterministically mid-solve
// without depending on goroutine scheduling (a cancel() fired from a
// helper goroutine never runs before the solve completes on a single-CPU
// machine, because the pivot loop does not yield).
type countdownCtx struct {
	context.Context
	polls int
}

func (c *countdownCtx) Err() error {
	if c.polls--; c.polls < 0 {
		return context.Canceled
	}
	return nil
}

// TestSolveContextMidSolveCancel cancels after the solve has started
// pivoting (the cube is big enough that the cooperative check every
// ctxCheckEvery pivots fires many times, and the countdown context flips
// to Canceled only after the first few checks have passed).
func TestSolveContextMidSolveCancel(t *testing.T) {
	p := kleeMinty(14) // 16383 Dantzig pivots: plenty of check windows
	ctx := &countdownCtx{Context: context.Background(), polls: 8}
	sol, err := p.Solve(ctx, nil)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if sol.Status != Canceled {
		t.Errorf("status = %v, want Canceled", sol.Status)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("errors.Is(err, context.Canceled) = false for %v", err)
	}
}

// TestSolveContextBackgroundIdentical: plumbing a live, cancelable context
// must not change the result of a healthy solve against the background
// context.
func TestSolveContextBackgroundIdentical(t *testing.T) {
	a, err := kleeMinty(8).Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := kleeMinty(8).Solve(live, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Objective != b.Objective || a.Iterations != b.Iterations {
		t.Errorf("context plumbing changed the solve: (%g, %d) vs (%g, %d)",
			a.Objective, a.Iterations, b.Objective, b.Iterations)
	}
	for j := range a.x {
		if a.x[j] != b.x[j] {
			t.Errorf("x[%d]: %g vs %g", j, a.x[j], b.x[j])
		}
	}
}

// TestVerifySolutionCatchesGarbage drives the independent verifier
// directly: a doctored solution vector must be rejected even though the
// tableau believed it optimal.
func TestVerifySolutionCatchesGarbage(t *testing.T) {
	p := NewProblem(Maximize)
	x := p.AddVar("x", 0, 10, 1)
	p.AddRow(LE, 5, Term{x, 1})
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.verifySolution(sol); err != nil {
		t.Fatalf("healthy solution rejected: %v", err)
	}
	sol.x[0] = 7 // violates the row
	if err := p.verifySolution(sol); err == nil {
		t.Error("row violation not caught")
	}
	sol.x[0] = -1 // violates the lower bound
	if err := p.verifySolution(sol); err == nil {
		t.Error("bound violation not caught")
	}
	sol.x[0] = math.NaN()
	if err := p.verifySolution(sol); err == nil {
		t.Error("NaN value not caught")
	}
}

// TestRescaledCopyDeterministicAndEquivalent: the numerical-retry clone
// must solve to the same optimum (within the tiny relaxation) and be
// byte-for-byte deterministic across builds.
func TestRescaledCopyDeterministicAndEquivalent(t *testing.T) {
	mk := func() *Problem {
		p := NewProblem(Maximize)
		x := p.AddVar("x", 0, 4, 3)
		y := p.AddVar("y", 0, Inf, 2)
		p.AddRow(LE, 14, Term{x, 2}, Term{y, 1})
		p.AddRow(GE, 0, Term{x, 1}, Term{y, -1})
		p.AddRow(EQ, 4, Term{x, 1})
		p.AddRangeRow(1, 9, Term{x, 1}, Term{y, 1})
		return p
	}
	want, err := mk().Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	c1, c2 := mk().rescaledCopy(), mk().rescaledCopy()
	s1, err := c1.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := c2.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if s1.Objective != s2.Objective {
		t.Errorf("rescaled copies disagree: %g vs %g", s1.Objective, s2.Objective)
	}
	if math.Abs(s1.Objective-want.Objective) > 1e-6*(1+math.Abs(want.Objective)) {
		t.Errorf("rescaled objective %g drifted from original %g", s1.Objective, want.Objective)
	}
	// The retried solution must also verify against the ORIGINAL problem.
	orig := mk()
	if err := orig.verifySolution(s1); err != nil {
		t.Errorf("rescaled solution fails original verification: %v", err)
	}
}

// TestDegenerateLPTerminates exercises the in-iterate degeneracy counter:
// a highly degenerate LP (many redundant constraints active at the
// optimum) must still terminate Optimal, not spin.
func TestDegenerateLPTerminates(t *testing.T) {
	p := NewProblem(Maximize)
	n := 6
	vars := make([]int, n)
	for i := range vars {
		vars[i] = p.AddVar("", 0, Inf, 1)
	}
	// All constraints pass through the origin: every early pivot is
	// degenerate.
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			p.AddRow(LE, 0, Term{vars[i], 1}, Term{vars[j], -1})
			p.AddRow(LE, 0, Term{vars[i], -1}, Term{vars[j], 1})
		}
	}
	p.AddRow(LE, float64(n), sumTerms(vars)...)
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatalf("degenerate LP: %v", err)
	}
	if math.Abs(sol.Objective-float64(n)) > 1e-6 {
		t.Errorf("objective = %g, want %d", sol.Objective, n)
	}
}

func sumTerms(vars []int) []Term {
	out := make([]Term, len(vars))
	for i, v := range vars {
		out[i] = Term{v, 1}
	}
	return out
}
