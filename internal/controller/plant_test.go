package controller

import (
	"math"
	"testing"

	"thermaldc/internal/faults"
)

// TestPlantOnPlannerModelMatchesTruth: the closed loop points the truth
// plant at the planner's degraded model instead of projecting the Truth
// view. Under a node failure, a CRAC degradation, a cap step and a sensor
// bias (which moves only the planner's redlines), both plants must sample
// and report headroom bit for bit alike.
func TestPlantOnPlannerModelMatchesTruth(t *testing.T) {
	cfg, solver, _, sc, _ := ladderFixture(t)
	plan, err := solver.Solve()
	if err != nil {
		t.Fatal(err)
	}
	base := sc.DC
	st := faults.NewState(base.NCRAC(), base.NCN())
	for _, e := range []faults.Event{
		{Kind: faults.NodeFail, Unit: 1},
		{Kind: faults.CRACDegrade, Unit: 0, Magnitude: 0.7},
		{Kind: faults.PowerCap, Magnitude: 0.9},
		{Kind: faults.SensorOffset, Magnitude: 1.5},
	} {
		st.Apply(e)
	}
	plannerDC, plannerTM, _, err := newPlanner(base, st, cfg.Assign)
	if err != nil {
		t.Fatal(err)
	}
	if plannerDC.RedlineNode == base.RedlineNode {
		t.Fatal("the sensor bias left the planner's redlines alone")
	}

	got := newTruthPlant(base)
	got.update(plannerDC, plannerTM, st, plan)
	want := newTruthPlant(base)
	if err := want.project(base, st, plan); err != nil {
		t.Fatal(err)
	}

	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	gs, ws := got.Sample(0), want.Sample(0)
	if !same(gs.Power, ws.Power) || !same(gs.PowerCap, ws.PowerCap) || !same(gs.InletExcess, ws.InletExcess) {
		t.Errorf("Sample = %+v, truth plant's %+v", gs, ws)
	}
	gp, gc, gby := got.headroom()
	wp, wc, wby := want.headroom()
	if !same(gp, wp) || !same(gc, wc) || len(gby) != len(wby) {
		t.Fatalf("headroom power/cap/sensors = %v/%v/%d, truth plant's %v/%v/%d", gp, gc, len(gby), wp, wc, len(wby))
	}
	for i := range gby {
		if !same(gby[i], wby[i]) {
			t.Errorf("sensor %d headroom %v, truth plant's %v", i, gby[i], wby[i])
		}
	}
}
