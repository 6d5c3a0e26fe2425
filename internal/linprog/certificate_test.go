package linprog_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/layout"
	"thermaldc/internal/linprog"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
	"thermaldc/internal/thermal"
	"thermaldc/internal/zones"
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

// TestZoneLPCertificates audits every zone LP of a cap-step sequence on a
// small zoned fleet with a KKT certificate. The coordination master keeps
// each zone's power-row dual as the slope of a Kelley cut and reuses it
// at later caps, so each ≤ row's dual must also be non-negative. Every
// audited solve must be one the zone solver counted.
func TestZoneLPCertificates(t *testing.T) {
	f, err := zones.BuildFleet(zones.FleetConfig{
		Zones: 3, NodesPerZone: 10, CracsPerZone: 2, Variants: 2, Seed: 5, PconstFraction: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	part, err := zones.PartitionDataCenter(dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	// One worker keeps every zone solve, and so every t.Fatalf, on this
	// goroutine.
	zs, err := zones.NewSolverFromPartition(part, tm, zones.Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}

	solves := 0
	linprog.SetSolvedHook(func(p *linprog.Problem, sol *linprog.Solution) {
		solves++
		tag := fmt.Sprintf("zone solve %d", solves)
		linprog.CheckKKT(t, tag, p, sol)
		for r := 0; r < p.NumRows(); r++ {
			if y := sol.Dual(r); linprog.IsLE(p, r) && y < -1e-9*(1+math.Abs(sol.Objective)) {
				t.Fatalf("%s: ≤ row %d has dual %g < 0", tag, r, y)
			}
		}
	})
	defer linprog.SetSolvedHook(nil)

	base := dc.Pconst
	rng := stats.NewRand(8)
	counted, rounds := 0, 0
	out := make([]float64, dc.NCRAC())
	for i := 0; i < 24; i++ {
		for c := range out {
			out[c] = 15
		}
		if i >= 16 {
			out[0] = 14 // one outlet move mid-sequence resets that zone's pool
		}
		dc.Pconst = base * (1 + stats.Uniform(rng, -0.2, 0.2))
		if _, err := zs.Solve(context.Background(), out); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
		st := zs.LastStats()
		if st.Fallback {
			t.Fatalf("step %d fell back to the monolithic solver: %+v", i, st)
		}
		counted += st.ZoneSolves
		rounds += st.Rounds
	}
	// Every Solve confirms each zone with at least one LP.
	if solves != counted || solves < 24*zs.NumZones() || rounds == 0 {
		t.Fatalf("%d optimal solves audited, zone solver counted %d (%d rounds)", solves, counted, rounds)
	}
}
