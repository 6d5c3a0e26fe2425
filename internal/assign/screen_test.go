package assign_test

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/faults"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// screenCase is one planner model the screening tests search: a small
// random data center, healthy or after one fault.
type screenCase struct {
	name string
	dc   *model.DataCenter
	tm   *thermal.Model
	fine float64 // search FineStep; coarser for three CRACs keeps FullGrid small
}

// options returns the default options for c at ψ, strategy and parallelism.
func (c screenCase) options(psi float64, strat assign.Strategy, par int) assign.Options {
	opts := assign.DefaultOptions()
	opts.Psi, opts.Strategy = psi, strat
	opts.Search.FineStep, opts.Search.Parallelism = c.fine, par
	return opts
}

// screenCases builds two random small data centers and projects each
// through every fault kind, so the searches run under cap steps, node
// failures, CRAC degradation and outage, and tightened redlines. A third
// copy of each has its power cap lifted out of reach, so many outlet
// vectors tie at the full-load reward and the searches' tie rule is
// exercised.
func screenCases(t *testing.T) []screenCase {
	t.Helper()
	events := []faults.Event{
		{Kind: faults.CRACDegrade, Unit: 0, Magnitude: 0.7},
		{Kind: faults.CRACOutage, Unit: 1},
		{Kind: faults.NodeFail, Unit: 3},
		{Kind: faults.PowerCap, Magnitude: 0.85},
		{Kind: faults.SensorOffset, Magnitude: 1},
	}
	var cases []screenCase
	for _, dcs := range []struct {
		seed         int64
		cracs, nodes int
		fine         float64
	}{{3, 2, 10, 1}, {8, 3, 12, 2.5}} {
		seed, fine := dcs.seed, dcs.fine
		cfg := scenario.Default(0.3, 0.3, seed)
		cfg.NCracs, cfg.NNodes = dcs.cracs, dcs.nodes
		sc, err := scenario.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		cases = append(cases, screenCase{fmt.Sprintf("seed%d/healthy", seed), sc.DC, sc.Thermal, fine})
		uncapped := *sc.DC
		uncapped.Pconst *= 3
		cases = append(cases, screenCase{fmt.Sprintf("seed%d/uncapped", seed), &uncapped, sc.Thermal, fine})
		for _, ev := range events {
			st := faults.NewState(sc.DC.NCRAC(), sc.DC.NCN())
			st.Apply(ev)
			dc, err := st.Degrade(sc.DC, faults.Planner)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, ev.Kind, err)
			}
			tm, err := thermal.New(dc)
			if err != nil {
				t.Fatalf("seed %d %v: %v", seed, ev.Kind, err)
			}
			cases = append(cases, screenCase{fmt.Sprintf("seed%d/%v", seed, ev.Kind), dc, tm, fine})
		}
	}
	return cases
}

// TestScreenedSearchMatchesUnscreened requires the weak-duality screen to
// be invisible in every search result: against the same search with its
// bounds dropped, identical Out, a bit-identical Value and identical visit
// counts, and a solved count that is the same at every worker count.
func TestScreenedSearchMatchesUnscreened(t *testing.T) {
	strategies := []assign.Strategy{assign.FullGrid, assign.CoarseToFine, assign.CoordDescent}
	screened := 0
	for _, c := range screenCases(t) {
		for _, psi := range []float64{25, 50} {
			for _, strat := range strategies {
				tag := fmt.Sprintf("%s/psi%g/%v", c.name, psi, strat)
				search := func(par int, screen bool) (tempsearch.Result, error) {
					s, err := assign.NewThreeStageSolver(c.dc, c.tm, c.options(psi, strat, par))
					if err != nil {
						return tempsearch.Result{}, err
					}
					return s.SearchOnly(screen)
				}
				screened += compareSearches(t, tag, search)
			}
		}
		for _, strat := range []assign.Strategy{assign.FullGrid, assign.CoarseToFine} {
			tag := fmt.Sprintf("%s/eq21/%v", c.name, strat)
			screened += compareSearches(t, tag, func(par int, screen bool) (tempsearch.Result, error) {
				return assign.BaselineSearchOnly(c.dc, c.tm, c.options(50, strat, par), screen)
			})
		}
	}
	if screened == 0 {
		t.Fatal("no search screened a candidate: the comparison is vacuous")
	}
}

// compareSearches runs search unscreened at one worker and screened at 1, 2
// and 4, and returns how many candidates the screened search skipped.
func compareSearches(t *testing.T, tag string, search func(par int, screen bool) (tempsearch.Result, error)) int {
	t.Helper()
	ref, refErr := search(1, false)
	if ref.Solved != ref.Evals {
		t.Fatalf("%s: unscreened search solved %d of %d candidates", tag, ref.Solved, ref.Evals)
	}
	solved := -1
	for _, par := range []int{1, 2, 4} {
		got, err := search(par, true)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%s par %d: err %v, unscreened err %v", tag, par, err, refErr)
		}
		if got.Evals != ref.Evals {
			t.Fatalf("%s par %d: visited %d candidates, unscreened %d", tag, par, got.Evals, ref.Evals)
		}
		if math.Float64bits(got.Value) != math.Float64bits(ref.Value) {
			t.Fatalf("%s par %d: value %v, unscreened %v", tag, par, got.Value, ref.Value)
		}
		if fmt.Sprint(got.Out) != fmt.Sprint(ref.Out) {
			t.Fatalf("%s par %d: outlets %v, unscreened %v", tag, par, got.Out, ref.Out)
		}
		if solved >= 0 && got.Solved != solved {
			t.Fatalf("%s par %d: solved %d candidates, %d at one worker", tag, par, got.Solved, solved)
		}
		solved = got.Solved
	}
	return ref.Evals - solved
}

// TestOutletBoundMatchesDualBound checks the searches' cached bound against
// linprog's one-pass primitive on the exact LP a solve would run: the
// Stage-1 and Equation-21 bounds at a cooler candidate, priced with the
// search optimum's duals, must equal g + margin of that LP. Some duals are
// negated first: both bounds must clamp them to stay valid.
func TestOutletBoundMatchesDualBound(t *testing.T) {
	for _, c := range screenCases(t) {
		s, err := assign.NewThreeStageSolver(c.dc, c.tm, c.options(50, assign.CoarseToFine, 1))
		if err != nil {
			t.Fatal(err)
		}
		best, err := s.SearchOnly(true)
		if errors.Is(err, tempsearch.ErrNoFeasible) {
			continue // no outlets to price around
		}
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		s1 := s.Stage1Warm()
		if _, err := s1.Solve(context.Background(), best.Out); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		y := scramble(s1.AppendDuals(nil))
		// Lowering outlets only cools inlets, so the cooler candidate stays
		// clear of the base-power redline check.
		to := cooler(best.Out)
		s1.SetBoundDuals(y)
		checkBound(t, c.name+"/stage1", s1.Bound(to), s1.Stage1LPAt(to), y)

		best, err = assign.BaselineSearchOnly(c.dc, c.tm, c.options(50, assign.CoarseToFine, 1), true)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		sol, err := assign.BaselineLPAt(c.dc, c.tm, best.Out).Solve(context.Background(), nil)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		y = scramble(sol.AppendDuals(nil))
		to = cooler(best.Out)
		checkBound(t, c.name+"/eq21", assign.BaselineBound(c.dc, c.tm, y, to), assign.BaselineLPAt(c.dc, c.tm, to), y)
	}
}

// scramble negates every third dual and offsets the others, so y carries
// entries of both signs.
func scramble(y []float64) []float64 {
	for r := range y {
		if r%3 == 0 {
			y[r] = -1 - y[r]
		} else {
			y[r] += 0.01
		}
	}
	return y
}

// cooler lowers each outlet of out by 1.5 °C or more.
func cooler(out []float64) []float64 {
	to := make([]float64, len(out))
	for i, v := range out {
		to[i] = v - 1.5 - float64(i)
	}
	return to
}

func checkBound(t *testing.T, tag string, got float64, p *linprog.Problem, y []float64) {
	t.Helper()
	g, margin := p.DualBound(y, make([]float64, p.NumVars()))
	want := g + margin
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Fatalf("%s: cached bound %v, DualBound %v + %v", tag, got, g, margin)
	}
	sol, err := p.Solve(context.Background(), nil)
	if err == nil && sol.Objective > got {
		t.Fatalf("%s: bound %v below the optimum %v", tag, got, sol.Objective)
	}
}

// TestStage1BoundZeroAllocs pins the screen's cost on the search hot path:
// pricing a candidate on a warm Stage1Solver allocates nothing, and neither
// does installing a new dual vector.
func TestStage1BoundZeroAllocs(t *testing.T) {
	sc := smallScenario(t, 1)
	s, err := assign.NewThreeStageSolver(sc.DC, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	s1 := s.Stage1Warm()
	if _, err := s1.Solve(context.Background(), []float64{15, 15}); err != nil {
		t.Fatal(err)
	}
	y := s1.AppendDuals(nil)
	out := []float64{17, 13}
	s1.SetBoundDuals(y)
	if b := s1.Bound(out); math.IsInf(b, 0) || math.IsNaN(b) {
		t.Fatalf("bound %v", b)
	}
	if n := testing.AllocsPerRun(100, func() { s1.Bound(out) }); n != 0 {
		t.Fatalf("Bound allocates %v per call", n)
	}
	if n := testing.AllocsPerRun(100, func() { s1.SetBoundDuals(y) }); n != 0 {
		t.Fatalf("SetBoundDuals allocates %v per call", n)
	}
}
