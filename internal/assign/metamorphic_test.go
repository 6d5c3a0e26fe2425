package assign_test

import (
	"math"
	"sort"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/stats"
	"thermaldc/internal/tempsearch"
)

// monotone tracks a sequence of optima along a rising parameter (a cap in
// kW, a redline in °C): once a point is feasible every higher one must
// be, and the optimum may never fall (up to the simplex's round-off). An
// infeasible point thus counts as −∞.
type monotone struct {
	t       *testing.T
	name    string
	unit    string
	prev    float64
	prevArg float64
	ok      bool
}

func (m *monotone) next(arg, value float64, ok bool) {
	m.t.Helper()
	switch {
	case m.ok && !ok:
		m.t.Fatalf("%s: feasible at %.6g %s (value %.10g) but not at the higher %.6g %s", m.name, m.prevArg, m.unit, m.prev, arg, m.unit)
	case m.ok && value < m.prev-1e-9*(1+math.Abs(m.prev)):
		m.t.Fatalf("%s: optimum fell from %.12g at %.6g %s to %.12g at %.6g %s", m.name, m.prev, m.prevArg, m.unit, value, arg, m.unit)
	}
	if ok {
		m.prev, m.prevArg, m.ok = value, arg, true
	}
}

// TestStage1OptimumMonotoneInCap is a metamorphic property of the paper's
// Stage-1 LP: raising Pconst only loosens the power row (constraint 4), so
// at fixed CRAC outlets the Stage-1 optimum never decreases as the cap
// rises, and neither does the exhaustive-grid optimum over outlets, a
// maximum of such optima. Every fleet cap step relies on it. Each outlet
// vector steps one warm Stage1Solver through a sorted sequence of seeded
// caps spanning and overshooting [Pmin, Pmax].
func TestStage1OptimumMonotoneInCap(t *testing.T) {
	opts := assign.DefaultOptions()
	opts.Strategy = assign.FullGrid
	opts.Search = tempsearch.Config{Lo: 10, Hi: 20, CoarseStep: 5, FineStep: 2.5}
	outlets := [][]float64{{10, 10}, {12.5, 17.5}, {15, 15}, {20, 12.5}, {20, 20}}
	feasible := 0
	for seed := int64(71); seed < 74; seed++ {
		sc := smallScenario(t, seed)
		dc := sc.DC
		rng := stats.NewRand(seed)
		span := sc.Pmax - sc.Pmin
		caps := make([]float64, 16)
		for i := range caps {
			caps[i] = sc.Pmin + span*stats.Uniform(rng, -0.1, 1.1)
		}
		sort.Float64s(caps)

		s1 := assign.NewStage1Solver(dc, sc.Thermal, buildARRs(t, sc, opts.Psi))
		ts, err := assign.NewThreeStageSolver(dc, sc.Thermal, opts)
		if err != nil {
			t.Fatal(err)
		}
		fixed := make([]monotone, len(outlets))
		for o := range fixed {
			fixed[o] = monotone{t: t, name: "Stage1Solver", unit: "kW"}
		}
		grid := monotone{t: t, name: "exhaustive grid", unit: "kW"}
		for _, c := range caps {
			dc.Pconst = c
			for o, out := range outlets {
				res, err := s1.Solve(out)
				ok := err == nil && res.Feasible
				value := 0.0
				if ok {
					value = res.PredictedARR
					feasible++
				}
				fixed[o].next(c, value, ok)
			}
			best, err := ts.SearchOnly(false)
			grid.next(c, best.Value, err == nil && best.Out != nil)
		}
		if !grid.ok {
			t.Fatalf("seed %d: no cap was feasible on the grid", seed)
		}
	}
	if feasible == 0 {
		t.Fatal("no fixed-outlet solve was feasible")
	}
}

// TestStage1OptimumMonotoneInRedline is the cap property's twin: raising
// RedlineNode only loosens the node thermal rows (constraint 5), so at fixed
// CRAC outlets and a fixed cap the Stage-1 optimum never decreases as the
// redline rises. The seeded redlines span the edge where the coolest
// outlets become infeasible and the range where the cap, not the redline,
// binds. outletLP.init bakes the redlines into the LP, so every redline
// gets a freshly built solver.
func TestStage1OptimumMonotoneInRedline(t *testing.T) {
	outlets := [][]float64{{10, 10}, {12.5, 17.5}, {15, 15}, {20, 12.5}, {20, 20}}
	feasible, infeasible := 0, 0
	for seed := int64(71); seed < 74; seed++ {
		sc := smallScenario(t, seed)
		dc := sc.DC
		arrs := buildARRs(t, sc, assign.DefaultOptions().Psi)
		rng := stats.NewRand(seed)
		redlines := make([]float64, 16)
		for i := range redlines {
			redlines[i] = stats.Uniform(rng, 18, 30)
		}
		sort.Float64s(redlines)
		fixed := make([]monotone, len(outlets))
		for o := range fixed {
			fixed[o] = monotone{t: t, name: "Stage1Solver", unit: "°C"}
		}
		for _, redline := range redlines {
			dc.RedlineNode = redline
			s1 := assign.NewStage1Solver(dc, sc.Thermal, arrs)
			for o, out := range outlets {
				res, err := s1.Solve(out)
				ok := err == nil && res.Feasible
				value := 0.0
				if ok {
					value = res.PredictedARR
					feasible++
				} else {
					infeasible++
				}
				fixed[o].next(redline, value, ok)
			}
		}
	}
	if feasible == 0 || infeasible == 0 {
		t.Fatalf("%d feasible and %d infeasible solves; the redline range must cross the feasibility edge", feasible, infeasible)
	}
}
