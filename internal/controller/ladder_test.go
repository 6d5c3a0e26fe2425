package controller

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/thermal"
)

// ladderFixture builds a small solvable scenario plus a working solver.
func ladderFixture(t *testing.T) (cfg Config, solver *assign.ThreeStageSolver, rebuild func() (*assign.ThreeStageSolver, error), fix *scenario.Scenario, tm *thermal.Model) {
	t.Helper()
	// Some seeds draw a fleet the redlines cannot cool; scan for one that
	// builds (the invariant test does the same).
	var sc *scenario.Scenario
	var err error
	for seed := int64(0); seed < 20; seed++ {
		scCfg := scenario.Default(0.3, 0.1, seed)
		scCfg.NCracs = 2
		scCfg.NNodes = 8
		if sc, err = scenario.Build(scCfg); err == nil {
			break
		}
	}
	if err != nil {
		t.Fatal(err)
	}
	tm, err = thermal.New(sc.DC)
	if err != nil {
		t.Fatal(err)
	}
	opts := assign.DefaultOptions()
	opts.Search.Parallelism = 1
	solver, err = assign.NewThreeStageSolver(sc.DC, tm, opts)
	if err != nil {
		t.Fatal(err)
	}
	rebuild = func() (*assign.ThreeStageSolver, error) {
		return assign.NewThreeStageSolver(sc.DC, tm, opts)
	}
	cfg = DefaultConfig(30, 10)
	cfg.Assign = opts
	return cfg, solver, rebuild, sc, tm
}

func TestLadderWarmRung(t *testing.T) {
	cfg, solver, rebuild, sc, tm := ladderFixture(t)
	out := runLadder(context.Background(), cfg, solver, rebuild, sc.DC, tm, nil, nil)
	if out.rung != RungWarm || out.lastErr != nil || out.solver != nil {
		t.Fatalf("rung=%v err=%v rebuilt=%v, want warm/nil/false", out.rung, out.lastErr, out.solver != nil)
	}
	if out.plan == nil || !out.plan.Stage1.Feasible {
		t.Fatal("warm rung returned no feasible plan")
	}
}

// TestLadderColdRungAfterPanic: a zero-value ThreeStageSolver panics on a
// nil LP skeleton; the guard must catch it (Panic kind) and the cold rung
// must recover with a freshly built solver.
func TestLadderColdRungAfterPanic(t *testing.T) {
	cfg, _, rebuild, sc, tm := ladderFixture(t)
	broken := new(assign.ThreeStageSolver)
	out := runLadder(context.Background(), cfg, broken, rebuild, sc.DC, tm, nil, nil)
	if out.rung != RungCold {
		t.Fatalf("rung = %v (err %v), want cold", out.rung, out.lastErr)
	}
	if solvererr.Classify(out.lastErr) != solvererr.Panic {
		t.Fatalf("lastErr kind = %v (%v), want panic", solvererr.Classify(out.lastErr), out.lastErr)
	}
	if out.solver == nil {
		t.Fatal("cold rung did not hand back the rebuilt solver")
	}
	if out.plan == nil || !out.plan.Stage1.Feasible {
		t.Fatal("cold rung returned no feasible plan")
	}
}

// TestLadderPrevPlanRung: every solve attempt fails, but the previous
// verified plan still passes Verify on the unchanged model and stays in
// force. A panic is neither infeasibility nor a timeout, so the cold rung
// rebuilds exactly once before the ladder falls to the previous plan.
func TestLadderPrevPlanRung(t *testing.T) {
	cfg, solver, _, sc, tm := ladderFixture(t)
	lastGood, err := guardedSolve(context.Background(), solver)
	if err != nil {
		t.Fatal(err)
	}
	rebuilds := 0
	badRebuild := func() (*assign.ThreeStageSolver, error) {
		rebuilds++
		return nil, errors.New("skeleton build exploded")
	}
	out := runLadder(context.Background(), cfg, new(assign.ThreeStageSolver), badRebuild, sc.DC, tm, lastGood, nil)
	if out.rung != RungPrevPlan {
		t.Fatalf("rung = %v (err %v), want prev-plan", out.rung, out.lastErr)
	}
	if out.plan != lastGood {
		t.Fatal("prev-plan rung did not reuse the last verified plan")
	}
	if rebuilds != 1 {
		t.Fatalf("ladder ran %d rebuilds after a panic, want exactly 1 (the cold rung)", rebuilds)
	}
}

// TestLadderAllOffRung: no solve succeeds and there is no previous plan —
// the ladder bottoms out at the all-off safe plan.
func TestLadderAllOffRung(t *testing.T) {
	cfg, _, _, sc, tm := ladderFixture(t)
	badRebuild := func() (*assign.ThreeStageSolver, error) {
		return nil, errors.New("skeleton build exploded")
	}
	out := runLadder(context.Background(), cfg, new(assign.ThreeStageSolver), badRebuild, sc.DC, tm, nil, nil)
	if out.rung != RungAllOff {
		t.Fatalf("rung = %v, want all-off", out.rung)
	}
	off := sc.DC.NodeType(0).OffState()
	for _, ps := range out.plan.PStates[:sc.DC.NodeType(0).NumCores] {
		if ps != off {
			t.Fatalf("all-off plan has core at P-state %d", ps)
		}
	}
}

// TestLadderTimeoutSkipsSolveRungs: an expired budget must not burn time
// on a cold rebuild — the ladder drops straight to the safe rungs with a
// Timeout classification.
func TestLadderTimeoutSkipsSolveRungs(t *testing.T) {
	cfg, solver, _, sc, tm := ladderFixture(t)
	cfg.SolveTimeout = time.Nanosecond
	rebuilds := 0
	rebuild := func() (*assign.ThreeStageSolver, error) {
		rebuilds++
		return nil, errors.New("should not be called")
	}
	out := runLadder(context.Background(), cfg, solver, rebuild, sc.DC, tm, nil, nil)
	if out.rung != RungAllOff {
		t.Fatalf("rung = %v, want all-off", out.rung)
	}
	if solvererr.Classify(out.lastErr) != solvererr.Timeout {
		t.Fatalf("lastErr kind = %v (%v), want timeout", solvererr.Classify(out.lastErr), out.lastErr)
	}
	if rebuilds != 0 {
		t.Fatalf("cold rung ran %d rebuilds after the deadline expired", rebuilds)
	}
}

// TestLadderInfeasibleShortCircuits: infeasibility is a property of the
// model, so the ladder must not waste its budget re-solving the same LP.
func TestLadderInfeasibleShortCircuits(t *testing.T) {
	cfg, solver, _, sc, tm := ladderFixture(t)
	// A cap below the fleet's base power leaves no feasible assignment.
	old := sc.DC.Pconst
	sc.DC.Pconst = 1e-12
	defer func() { sc.DC.Pconst = old }()
	rebuilds := 0
	rebuild := func() (*assign.ThreeStageSolver, error) {
		rebuilds++
		return nil, errors.New("should not be called")
	}
	out := runLadder(context.Background(), cfg, solver, rebuild, sc.DC, tm, nil, nil)
	if out.rung != RungAllOff {
		t.Fatalf("rung = %v, want all-off", out.rung)
	}
	if k := solvererr.Classify(out.lastErr); k != solvererr.Infeasible {
		t.Fatalf("lastErr kind = %v (%v), want infeasible", k, out.lastErr)
	}
	if rebuilds != 0 {
		t.Fatalf("ladder ran %d rebuilds for a deterministically infeasible model", rebuilds)
	}
}

// TestGuardedSolveClassifiesPanic pins the panic guard's error shape.
func TestGuardedSolveClassifiesPanic(t *testing.T) {
	plan, err := guardedSolve(context.Background(), new(assign.ThreeStageSolver))
	if plan != nil || err == nil {
		t.Fatalf("plan=%v err=%v, want nil plan and an error", plan, err)
	}
	var se *solvererr.SolveError
	if !errors.As(err, &se) || se.Kind != solvererr.Panic {
		t.Fatalf("err = %v, want a SolveError with Panic kind", err)
	}
}

func TestRungStrings(t *testing.T) {
	want := map[Rung]string{
		RungWarm: "warm", RungCold: "cold", RungPrevPlan: "prev-plan", RungAllOff: "all-off",
	}
	if len(want) != NumRungs {
		t.Fatalf("%d rung names for %d rungs", len(want), NumRungs)
	}
	for r, s := range want {
		if r.String() != s {
			t.Errorf("Rung(%d).String() = %q, want %q", int(r), r.String(), s)
		}
	}
	if Rung(99).String() != fmt.Sprintf("Rung(%d)", 99) {
		t.Errorf("unknown rung string = %q", Rung(99).String())
	}
}
