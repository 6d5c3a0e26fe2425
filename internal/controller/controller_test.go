package controller_test

import (
	"context"
	"math"
	"testing"

	"thermaldc/internal/controller"
	"thermaldc/internal/faults"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

func buildScenario(t testing.TB, seed int64, nnodes int) *scenario.Scenario {
	t.Helper()
	cfg := scenario.Default(0.3, 0.1, seed)
	cfg.NCracs = 2
	cfg.NNodes = nnodes
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func handSchedule(horizon float64) faults.Schedule {
	s := faults.Schedule{Events: []faults.Event{
		{Time: 0.25 * horizon, Kind: faults.CRACDegrade, Unit: 0, Magnitude: 0.7},
		{Time: 0.40 * horizon, Kind: faults.NodeFail, Unit: 1},
		{Time: 0.55 * horizon, Kind: faults.PowerCap, Magnitude: 0.8},
		{Time: 0.70 * horizon, Kind: faults.SensorOffset, Magnitude: 1},
	}}
	s.Sort()
	return s
}

func TestClosedLoopHoldsConstraints(t *testing.T) {
	sc := buildScenario(t, 1, 10)
	const horizon = 40.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(31))
	schedule := handSchedule(horizon)

	res, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, controller.DefaultConfig(horizon, 10))
	if err != nil {
		t.Fatal(err)
	}
	if res.Violations != 0 {
		t.Errorf("%d planner-view Verify violations", res.Violations)
	}
	if res.MaxPowerExcess > 1e-6 {
		t.Errorf("power cap violated by %g kW", res.MaxPowerExcess)
	}
	if res.MaxInletExcess > 1e-6 {
		t.Errorf("inlet redline violated by %g °C", res.MaxInletExcess)
	}
	if res.Fallbacks != 0 {
		t.Errorf("%d fallbacks on a moderate schedule", res.Fallbacks)
	}
	// Every event forces a boundary, so there are at least grid + event
	// intervals; the first epoch always solves.
	if res.Resolves < 5 {
		t.Errorf("only %d re-solves for 4 events", res.Resolves)
	}
	if res.TotalReward <= 0 {
		t.Error("no reward collected")
	}
	if math.Abs(res.RewardRate-res.TotalReward/horizon) > 1e-12 {
		t.Error("reward rate inconsistent with total")
	}
	// Epoch telemetry tiles the horizon.
	prev := 0.0
	for _, ep := range res.Epochs {
		if ep.Start != prev {
			t.Fatalf("epoch gap at %g", ep.Start)
		}
		prev = ep.End
	}
	if prev != horizon {
		t.Fatalf("epochs end at %g, want %g", prev, horizon)
	}
}

func TestClosedLoopBeatsOpenLoopUnderNodeFailures(t *testing.T) {
	// Node failures are where the closed loop wins on reward: the frozen
	// open-loop plan keeps routing tasks onto dead nodes (every one of
	// them lost), while a re-solve shifts the arrival capacity onto the
	// survivors.
	sc := buildScenario(t, 2, 10)
	const horizon = 60.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(37))
	s := faults.Schedule{Events: []faults.Event{
		{Time: 15, Kind: faults.NodeFail, Unit: 0},
		{Time: 15, Kind: faults.NodeFail, Unit: 3},
		{Time: 15, Kind: faults.NodeFail, Unit: 7},
	}}
	s.Sort()

	cfg := controller.DefaultConfig(horizon, 15)
	closed, err := controller.RunContext(context.Background(), sc.DC, s, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = controller.OpenLoop
	open, err := controller.RunContext(context.Background(), sc.DC, s, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if closed.MaxPowerExcess > 1e-6 || closed.MaxInletExcess > 1e-6 {
		t.Errorf("closed loop violated constraints: power %+g kW, inlet %+g °C",
			closed.MaxPowerExcess, closed.MaxInletExcess)
	}
	if closed.TotalReward <= open.TotalReward {
		t.Errorf("closed loop reward %g did not beat open loop %g", closed.TotalReward, open.TotalReward)
	}
	if open.Lost <= closed.Lost {
		t.Errorf("open loop lost %d tasks, closed %d; routing around dead nodes should reduce losses",
			open.Lost, closed.Lost)
	}
	t.Logf("closed %.1f/s (lost %d) vs open %.1f/s (lost %d)",
		closed.RewardRate, closed.Lost, open.RewardRate, open.Lost)
}

func TestOpenLoopViolatesWhereClosedLoopHolds(t *testing.T) {
	// Cooling degradation plus a power cut: the frozen plan now draws more
	// than the plant can supply and heats past the redline, while the
	// closed loop re-plans within the degraded envelope.
	sc := buildScenario(t, 2, 10)
	const horizon = 40.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(39))
	s := faults.Schedule{Events: []faults.Event{
		{Time: 10, Kind: faults.CRACDegrade, Unit: 0, Magnitude: 0.5},
		{Time: 18, Kind: faults.PowerCap, Magnitude: 0.7},
	}}
	s.Sort()

	cfg := controller.DefaultConfig(horizon, 10)
	closed, err := controller.RunContext(context.Background(), sc.DC, s, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = controller.OpenLoop
	open, err := controller.RunContext(context.Background(), sc.DC, s, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if closed.MaxPowerExcess > 1e-6 || closed.MaxInletExcess > 1e-6 {
		t.Errorf("closed loop violated constraints: power %+g kW, inlet %+g °C",
			closed.MaxPowerExcess, closed.MaxInletExcess)
	}
	if closed.Fallbacks != 0 {
		t.Errorf("%d fallbacks; this schedule should stay re-optimizable", closed.Fallbacks)
	}
	if open.MaxPowerExcess <= 1e-6 && open.MaxInletExcess <= 1e-6 {
		t.Error("open loop survived half cooling + 30% power cut unscathed; schedule too soft to discriminate")
	}
	t.Logf("closed %.1f/s (excess %+.2f kW, %+.2f °C) vs open %.1f/s (excess %+.2f kW, %+.2f °C)",
		closed.RewardRate, closed.MaxPowerExcess, closed.MaxInletExcess,
		open.RewardRate, open.MaxPowerExcess, open.MaxInletExcess)
}

func TestNoFaultsMatchesPlainRun(t *testing.T) {
	// With an empty schedule the closed loop is just the paper's scheme
	// sliced into epochs: reward must match the single-shot run exactly.
	sc := buildScenario(t, 3, 8)
	const horizon = 30.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(41))
	cfg := controller.DefaultConfig(horizon, 7)
	closed, err := controller.RunContext(context.Background(), sc.DC, faults.Schedule{}, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Mode = controller.OpenLoop
	open, err := controller.RunContext(context.Background(), sc.DC, faults.Schedule{}, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(closed.TotalReward-open.TotalReward) > 1e-9 {
		t.Errorf("fault-free closed loop reward %g != open loop %g", closed.TotalReward, open.TotalReward)
	}
	if closed.Completed != open.Completed || closed.Dropped != open.Dropped {
		t.Errorf("fault-free task accounting differs: %d/%d vs %d/%d",
			closed.Completed, closed.Dropped, open.Completed, open.Dropped)
	}
	if closed.Lost != 0 || open.Lost != 0 {
		t.Error("tasks lost without any node failure")
	}
	if closed.Resolves != 1 {
		t.Errorf("%d re-solves without any fault, want 1 (initial plan only)", closed.Resolves)
	}
}

func TestRunDeterministic(t *testing.T) {
	sc := buildScenario(t, 4, 8)
	const horizon = 30.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(43))
	schedule, err := faults.Generate(faults.DefaultGenConfig(9, horizon, sc.DC.NCRAC(), sc.DC.NCN()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := controller.DefaultConfig(horizon, 10)
	a, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalReward != b.TotalReward || a.Lost != b.Lost || a.MaxPower != b.MaxPower {
		t.Error("controller run not deterministic")
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	sc := buildScenario(t, 5, 8)
	if _, err := controller.RunContext(context.Background(), sc.DC, faults.Schedule{}, nil, controller.DefaultConfig(0, 10)); err == nil {
		t.Error("zero horizon accepted")
	}
	if _, err := controller.RunContext(context.Background(), sc.DC, faults.Schedule{}, nil, controller.DefaultConfig(10, 0)); err == nil {
		t.Error("zero epoch accepted")
	}
	bad := faults.Schedule{Events: []faults.Event{{Time: 1, Kind: faults.NodeFail, Unit: 99}}}
	if _, err := controller.RunContext(context.Background(), sc.DC, bad, nil, controller.DefaultConfig(10, 5)); err == nil {
		t.Error("out-of-range schedule accepted")
	}
}
