package controller_test

import (
	"context"
	"testing"
	"time"

	"thermaldc/internal/controller"
	"thermaldc/internal/faults"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

// TestInvariantFuzzedSchedules is the subsystem's safety net: across many
// fuzzed (scenario, fault schedule) pairs, the re-optimizing controller
// must keep the truth-model plant inside its power cap and inlet redlines
// for the whole run, and every re-solved plan must pass assign.Verify's
// independent constraint math with zero violations. The schedules come
// from the shipped generator at its default severity bounds — the envelope
// the package promises to survive without falling back.
func TestInvariantFuzzedSchedules(t *testing.T) {
	const tol = 1e-6
	runs := 50
	if testing.Short() {
		runs = 10
	}
	done := 0
	for seed := int64(0); done < runs; seed++ {
		cfg := scenario.Default(0.3, 0.1, seed)
		cfg.NCracs = 2
		cfg.NNodes = 8 + int(seed%5)
		sc, err := scenario.Build(cfg)
		if err != nil {
			// Some seeds draw a fleet the redlines cannot cool at all;
			// those are not this test's concern.
			continue
		}
		done++
		const horizon = 30.0
		gen := faults.DefaultGenConfig(seed*31+7, horizon, sc.DC.NCRAC(), sc.DC.NCN())
		// Vary the schedule shape with the seed, staying inside the
		// generator's default severity bounds.
		gen.CracDegradations = int(seed % 3)
		gen.PowerSteps = 1 + int(seed%2)
		gen.SensorOffsets = int(seed % 2)
		schedule, err := faults.Generate(gen)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(seed+1000))

		res, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, controller.DefaultConfig(horizon, 10))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if res.Violations != 0 {
			t.Errorf("seed %d: %d Verify violations across %d re-solves", seed, res.Violations, res.Resolves)
		}
		if res.Fallbacks != 0 {
			t.Errorf("seed %d: %d fallbacks under default-severity faults", seed, res.Fallbacks)
		}
		for _, ep := range res.Epochs {
			if ep.MaxPowerExcess > tol {
				t.Errorf("seed %d: epoch [%g, %g): power cap exceeded by %g kW",
					seed, ep.Start, ep.End, ep.MaxPowerExcess)
			}
			if ep.MaxInletExcess > tol {
				t.Errorf("seed %d: epoch [%g, %g): inlet redline exceeded by %g °C",
					seed, ep.Start, ep.End, ep.MaxInletExcess)
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d: schedule was %v", seed, schedule.Events)
		}
	}
}

// TestInvariantTightSolveDeadline starves every epoch re-solve of wall
// time: each trip down the degradation ladder times out immediately and
// the safe rungs (previous plan / all-off) must carry the run. The safety
// contract does not relax — the truth-model plant stays inside the power
// cap and inlet redlines for every fuzzed schedule, with no panics — the
// run just earns less reward.
func TestInvariantTightSolveDeadline(t *testing.T) {
	const tol = 1e-6
	runs := 50
	if testing.Short() {
		runs = 10
	}
	done := 0
	engaged := 0
	for seed := int64(0); done < runs; seed++ {
		cfg := scenario.Default(0.3, 0.1, seed)
		cfg.NCracs = 2
		cfg.NNodes = 8 + int(seed%5)
		sc, err := scenario.Build(cfg)
		if err != nil {
			continue
		}
		done++
		const horizon = 30.0
		gen := faults.DefaultGenConfig(seed*31+7, horizon, sc.DC.NCRAC(), sc.DC.NCN())
		gen.CracDegradations = int(seed % 3)
		gen.PowerSteps = 1 + int(seed%2)
		gen.SensorOffsets = int(seed % 2)
		schedule, err := faults.Generate(gen)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(seed+1000))

		run := controller.DefaultConfig(horizon, 10)
		run.SolveTimeout = time.Nanosecond // no solve can finish in this
		res, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, run)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		engaged += res.RungCounts[controller.RungPrevPlan] + res.RungCounts[controller.RungAllOff]
		if res.Violations != 0 {
			t.Errorf("seed %d: %d Verify violations across %d starved re-solves", seed, res.Violations, res.Resolves)
		}
		for _, ep := range res.Epochs {
			if ep.MaxPowerExcess > tol {
				t.Errorf("seed %d: epoch [%g, %g): power cap exceeded by %g kW on rung %v",
					seed, ep.Start, ep.End, ep.MaxPowerExcess, ep.Rung)
			}
			if ep.MaxInletExcess > tol {
				t.Errorf("seed %d: epoch [%g, %g): inlet redline exceeded by %g °C on rung %v",
					seed, ep.Start, ep.End, ep.MaxInletExcess, ep.Rung)
			}
		}
		if t.Failed() {
			t.Fatalf("seed %d: schedule was %v", seed, schedule.Events)
		}
	}
	if engaged == 0 {
		t.Fatal("the degradation ladder never engaged under a 1ns solve deadline")
	}
}
