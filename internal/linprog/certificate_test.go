package linprog_test

import (
	"fmt"
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/layout"
	"thermaldc/internal/linprog"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
)

// TestScreenSearchLPCertificates audits every LP a small outlet search
// solves — the Stage-1 candidates at ψ 25 and 50, the Equation-21
// candidates, and the final Stage-1 and Stage-3 solves — with a KKT
// certificate. The weak-duality screen prices candidates with these duals,
// so each ≤ row's dual must also be non-negative, and pricing an LP with its
// own duals must reproduce its optimum.
func TestScreenSearchLPCertificates(t *testing.T) {
	cfg := scenario.Default(0.3, 0.3, 5)
	cfg.NCracs, cfg.NNodes = 2, 12
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	solves, boxed := 0, 0
	linprog.SetSolvedHook(func(p *linprog.Problem, sol *linprog.Solution) {
		solves++
		tag := fmt.Sprintf("solve %d", solves)
		linprog.CheckKKT(t, tag, p, sol)
		const tol = 1e-9
		for r := 0; r < p.NumRows(); r++ {
			if y := sol.Dual(r); linprog.IsLE(p, r) && y < -tol*(1+math.Abs(sol.Objective)) {
				t.Fatalf("%s: ≤ row %d has dual %g < 0", tag, r, y)
			}
		}
		for j := 0; j < p.NumVars(); j++ {
			if lo, hi := p.VarBounds(j); math.IsInf(lo, 0) || math.IsInf(hi, 0) {
				return // only boxed LPs (the search LPs) price to a finite bound
			}
		}
		boxed++
		g, _ := p.DualBound(sol.AppendDuals(nil), make([]float64, p.NumVars()))
		if math.Abs(g-sol.Objective) > 1e-6*(1+math.Abs(sol.Objective)) {
			t.Fatalf("%s: bound at its own duals %v, objective %v", tag, g, sol.Objective)
		}
	})
	defer linprog.SetSolvedHook(nil)

	// One worker keeps every solve, and so every t.Fatalf, on this goroutine.
	opts := assign.DefaultOptions()
	opts.Search.Parallelism = 1
	for _, psi := range []float64{25, 50} {
		opts.Psi = psi
		if _, err := assign.ThreeStage(sc.DC, sc.Thermal, opts); err != nil {
			t.Fatalf("ψ=%g: %v", psi, err)
		}
	}
	if _, err := assign.Baseline(sc.DC, sc.Thermal, opts); err != nil {
		t.Fatal(err)
	}
	if solves < 40 || boxed < 30 {
		t.Fatalf("only %d LPs audited, %d of them boxed", solves, boxed)
	}
}

// TestAlphaLPCertificates audits every Appendix-B α LP that
// layout.GenerateAlpha solves with a KKT certificate: a paper-scale layout
// (150 nodes, 3 CRACs) and partial-rack layouts that only solve after the
// Table-II ranges are widened.
func TestAlphaLPCertificates(t *testing.T) {
	solves := 0
	linprog.SetSolvedHook(func(p *linprog.Problem, sol *linprog.Solution) {
		solves++
		linprog.CheckKKT(t, fmt.Sprintf("α solve %d", solves), p, sol)
	})
	defer linprog.SetSolvedHook(nil)

	type shape struct{ cracs, nodes int }
	shapes := []shape{{1, 2}, {2, 12}}
	if !testing.Short() {
		shapes = append(shapes, shape{3, 150})
	}
	for _, sh := range shapes {
		dc := alphaDC(t, sh.cracs, sh.nodes)
		before := solves
		if err := layout.GenerateAlpha(dc, layout.DefaultConfig(), stats.NewRand(42)); err != nil {
			t.Fatalf("%d CRACs, %d nodes: %v", sh.cracs, sh.nodes, err)
		}
		if solves != before+1 {
			t.Fatalf("%d CRACs, %d nodes: %d optimal solves audited, want 1", sh.cracs, sh.nodes, solves-before)
		}
	}
}
