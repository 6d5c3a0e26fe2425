package linprog

import (
	"context"
	"math"
	"testing"
)

// TestBadlyScaledKnapsack checks numerical robustness across 12 orders of
// magnitude of coefficient disparity — the regime a custom data-center
// model hits when a user mixes W with kW or seconds with hours.
func TestBadlyScaledKnapsack(t *testing.T) {
	for _, scale := range []float64{1e-6, 1e-3, 1, 1e3, 1e6} {
		p := NewProblem(Maximize)
		x := p.AddVar("x", 0, 2*scale, 3/scale)
		y := p.AddVar("y", 0, 5*scale, 1/scale)
		p.AddRow(LE, 4*scale, Term{x, 1}, Term{y, 1})
		sol, err := p.Solve(context.Background(), nil)
		if err != nil {
			t.Fatalf("scale %g: %v", scale, err)
		}
		// Optimum: x = 2·scale, y = 2·scale → 3·2 + 1·2 = 8.
		if math.Abs(sol.Objective-8) > 1e-6 {
			t.Errorf("scale %g: objective %g, want 8", scale, sol.Objective)
		}
	}
}

// TestMixedMagnitudeRows stresses rows whose coefficients span many
// orders of magnitude simultaneously.
func TestMixedMagnitudeRows(t *testing.T) {
	p := NewProblem(Minimize)
	x := p.AddVar("x", 0, Inf, 1e-3)
	y := p.AddVar("y", 0, Inf, 1e3)
	p.AddRow(GE, 1e6, Term{x, 1e-4}, Term{y, 1e4})
	p.AddRow(GE, 1, Term{x, 1e2}, Term{y, 1e-2})
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Verify constraint satisfaction at the reported solution.
	if 1e-4*sol.Value(x)+1e4*sol.Value(y) < 1e6-1 {
		t.Errorf("row 0 violated: x=%g y=%g", sol.Value(x), sol.Value(y))
	}
	if 1e2*sol.Value(x)+1e-2*sol.Value(y) < 1-1e-6 {
		t.Errorf("row 1 violated: x=%g y=%g", sol.Value(x), sol.Value(y))
	}
}
