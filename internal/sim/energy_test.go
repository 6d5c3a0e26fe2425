package sim_test

import (
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

func TestEnergyMatchesBudgetUnderPaperModel(t *testing.T) {
	// With idleFraction = 1 and all power factors unset, average compute
	// power equals Σ PCN_j from the P-state assignment exactly, regardless
	// of what executed (the paper's utilization-independent model).
	sc, res := buildAssigned(t, 6)
	const horizon = 20.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(9))
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := sim.Energy(sc.DC, res.PStates, out, 1)
	if err != nil {
		t.Fatal(err)
	}
	want := 0.0
	for _, p := range assign.NodePowersFromPStates(sc.DC, res.PStates) {
		want += p
	}
	if math.Abs(rep.AvgComputeKW-want) > 0.02*want {
		t.Errorf("avg compute power %g, want %g", rep.AvgComputeKW, want)
	}
	if rep.ComputeKJ <= 0 || rep.BaseKJ <= 0 {
		t.Error("energy components should be positive")
	}
	if math.Abs(rep.ComputeKJ-(rep.BaseKJ+rep.BusyKJ+rep.IdleKJ)) > 1e-9 {
		t.Error("energy ledger does not add up")
	}
}

func TestEnergyTaskPowerFactorsReduceBusyEnergy(t *testing.T) {
	sc, res := buildAssigned(t, 7)
	const horizon = 20.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(9))
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	full, err := sim.Energy(sc.DC, res.PStates, out, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Mark every type I/O-intensive at 60% power.
	for i := range sc.DC.TaskTypes {
		sc.DC.TaskTypes[i].PowerFactor = 0.6
	}
	reduced, err := sim.Energy(sc.DC, res.PStates, out, 1)
	for i := range sc.DC.TaskTypes {
		sc.DC.TaskTypes[i].PowerFactor = 0
	}
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(reduced.BusyKJ-0.6*full.BusyKJ) > 1e-9*full.BusyKJ {
		t.Errorf("busy energy %g, want %g", reduced.BusyKJ, 0.6*full.BusyKJ)
	}
	if reduced.IdleKJ != full.IdleKJ || reduced.BaseKJ != full.BaseKJ {
		t.Error("idle/base energy should be unaffected by task power factors")
	}
}

func TestEnergyIdleFractionScalesIdle(t *testing.T) {
	sc, res := buildAssigned(t, 8)
	const horizon = 20.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(9))
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	one, err := sim.Energy(sc.DC, res.PStates, out, 1)
	if err != nil {
		t.Fatal(err)
	}
	half, err := sim.Energy(sc.DC, res.PStates, out, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(half.IdleKJ-0.5*one.IdleKJ) > 1e-9*one.IdleKJ {
		t.Errorf("idle energy %g, want %g", half.IdleKJ, 0.5*one.IdleKJ)
	}
}

func TestEnergyValidation(t *testing.T) {
	sc, res := buildAssigned(t, 9)
	out := &sim.Result{Horizon: 10}
	if _, err := sim.Energy(sc.DC, res.PStates[:1], out, 1); err == nil {
		t.Error("short P-state slice accepted")
	}
	if _, err := sim.Energy(sc.DC, res.PStates, out, -0.1); err == nil {
		t.Error("negative idle fraction accepted")
	}
	if _, err := sim.Energy(sc.DC, res.PStates, out, 1.1); err == nil {
		t.Error("idle fraction > 1 accepted")
	}
}
