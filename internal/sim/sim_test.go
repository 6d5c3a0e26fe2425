package sim_test

import (
	"math"
	"reflect"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

func buildAssigned(t testing.TB, seed int64) (*scenario.Scenario, *assign.ThreeStageResult) {
	t.Helper()
	cfg := scenario.Default(0.3, 0.1, seed)
	cfg.NCracs = 2
	cfg.NNodes = 10
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return sc, res
}

func TestRunRejectsBadHorizon(t *testing.T) {
	sc, res := buildAssigned(t, 1)
	if _, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), nil, 0); err == nil {
		t.Fatal("horizon 0 accepted")
	}
	// A zero-length window (Start == horizon) would make every rate field
	// 0/0 = NaN; it must be rejected the same way.
	if _, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), nil, 5, sim.Options{Start: 5}); err == nil {
		t.Fatal("zero-length window accepted")
	}
	if _, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), nil, 5, sim.Options{Start: 6}); err == nil {
		t.Fatal("negative-length window accepted")
	}
	// And no surviving code path may emit NaN rates on a legal run.
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{out.RewardRate, out.WindowRewardRate, out.BusyFraction} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Fatalf("rate field is %g", v)
		}
	}
}

// fakePlant reports a fixed power ramp so telemetry folding is checkable.
type fakePlant struct {
	power func(t float64) float64
}

func (p fakePlant) Sample(t float64) sim.PlantSample {
	return sim.PlantSample{Power: p.power(t), PowerCap: 100, InletExcess: p.power(t) - 120}
}

func TestRunHooksFireInOrderWithTelemetry(t *testing.T) {
	sc, res := buildAssigned(t, 6)
	const horizon = 20.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(13))
	level := 90.0
	var fired []float64
	hooks := []sim.Hook{
		{Time: 5, Fire: func(now float64) { fired = append(fired, now); level = 110 }},
		{Time: 12, Fire: func(now float64) { fired = append(fired, now); level = 95 }},
		// A hook after the last arrival still fires via the end-of-run flush.
		{Time: horizon, Fire: func(now float64) { fired = append(fired, now) }},
	}
	out, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon, sim.Options{
		Hooks: hooks,
		Plant: fakePlant{power: func(t float64) float64 { return level }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(fired) != 3 || fired[0] != 5 || fired[1] != 12 || fired[2] != horizon {
		t.Fatalf("hooks fired at %v", fired)
	}
	// The plant peaked at 110 kW (after the first hook), 10 kW above the cap.
	if out.MaxPower != 110 {
		t.Errorf("MaxPower %g, want 110", out.MaxPower)
	}
	if math.Abs(out.MaxPowerExcess-10) > 1e-12 {
		t.Errorf("MaxPowerExcess %g, want 10", out.MaxPowerExcess)
	}
	if math.Abs(out.MaxInletExcess-(-10)) > 1e-12 {
		t.Errorf("MaxInletExcess %g, want -10", out.MaxInletExcess)
	}
	// Unsorted hooks are rejected.
	bad := []sim.Hook{{Time: 9}, {Time: 3}}
	if _, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), nil, horizon, sim.Options{Hooks: bad}); err == nil {
		t.Fatal("unsorted hooks accepted")
	}
}

func TestRunLostTasksEarnNoReward(t *testing.T) {
	sc, res := buildAssigned(t, 7)
	const horizon = 20.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(17))
	base, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Every task completing after t = 10 is lost.
	var lostRecords int
	out, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon, sim.Options{
		Lost: func(core int, start, completion float64) bool { return completion > 10 },
		Recorder: func(r sim.TaskRecord) {
			if r.Lost {
				lostRecords++
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if out.Lost == 0 {
		t.Fatal("no tasks lost under a rule that voids half the horizon")
	}
	if lostRecords != out.Lost {
		t.Errorf("%d lost records for %d lost tasks", lostRecords, out.Lost)
	}
	if out.Completed+out.Lost != base.Completed {
		t.Errorf("completed %d + lost %d != baseline completed %d (losses must not change placement)",
			out.Completed, out.Lost, base.Completed)
	}
	if out.TotalReward >= base.TotalReward {
		t.Errorf("lost tasks still earned reward: %g >= %g", out.TotalReward, base.TotalReward)
	}
}

func TestRunCarriedStateMatchesSingleRun(t *testing.T) {
	// Splitting one run into [0, split) and [split, horizon) with the
	// scheduler and free-time state carried across must reproduce the
	// single-run totals exactly: epoch slicing is bookkeeping, not physics.
	sc, res := buildAssigned(t, 8)
	const horizon, split = 30.0, 13.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(23))
	whole, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}

	s3 := res.Stage3
	s, err := sched.New(sc.DC, res.PStates, s3.CoreGroup, s3.Tasks, s3.GroupRate)
	if err != nil {
		t.Fatal(err)
	}
	freeAt := make([]float64, sc.DC.NumCores())
	var first, second []workload.Task
	for _, task := range tasks {
		if task.Arrival < split {
			first = append(first, task)
		} else {
			second = append(second, task)
		}
	}
	a, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), first, split, sim.Options{
		Scheduler: s, FreeAt: freeAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), second, horizon, sim.Options{
		Start: split, Scheduler: s, FreeAt: freeAt,
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.TotalReward + b.TotalReward; math.Abs(got-whole.TotalReward) > 1e-9 {
		t.Errorf("split reward %g != whole %g", got, whole.TotalReward)
	}
	if a.Completed+b.Completed != whole.Completed || a.Dropped+b.Dropped != whole.Dropped {
		t.Errorf("split counts (%d+%d completed, %d+%d dropped) != whole (%d, %d)",
			a.Completed, b.Completed, a.Dropped, b.Dropped, whole.Completed, whole.Dropped)
	}
	if a.Horizon != split || b.Horizon != horizon-split {
		t.Errorf("window lengths %g, %g", a.Horizon, b.Horizon)
	}
}

func TestRunRejectsBadTaskType(t *testing.T) {
	sc, res := buildAssigned(t, 9)
	bad := []workload.Task{{ID: 1, Type: sc.DC.T(), Arrival: 1, Deadline: 5}}
	if _, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), bad, 10); err == nil {
		t.Fatal("out-of-range task type accepted")
	}
}

func TestRunEmptyStream(t *testing.T) {
	sc, res := buildAssigned(t, 1)
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), nil, 10)
	if err != nil {
		t.Fatal(err)
	}
	if out.TotalReward != 0 || out.Completed != 0 || out.Dropped != 0 {
		t.Error("empty stream should produce zero activity")
	}
}

func TestRunTracksStage3Prediction(t *testing.T) {
	// The realized reward rate should come close to (and not exceed by
	// much) the Stage-3 steady-state prediction. It can't systematically
	// exceed it because Stage 3 is optimal for the P-state assignment;
	// stochastic arrivals and the ratio-cap rule typically land it a bit
	// below.
	sc, res := buildAssigned(t, 2)
	const horizon = 60.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(99))
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	pred := res.RewardRate()
	if out.RewardRate < 0.5*pred {
		t.Errorf("realized rate %g below half the prediction %g", out.RewardRate, pred)
	}
	if out.RewardRate > 1.3*pred {
		t.Errorf("realized rate %g implausibly above prediction %g", out.RewardRate, pred)
	}
	if out.Completed+out.Dropped != len(tasks) {
		t.Errorf("completed %d + dropped %d != %d tasks", out.Completed, out.Dropped, len(tasks))
	}
	t.Logf("predicted %.1f, realized %.1f (%.0f%% of prediction), dropped %d/%d, ratio err %.3f",
		pred, out.RewardRate, 100*out.RewardRate/pred, out.Dropped, len(tasks), out.MeanRatioError)
}

func TestRunAccountingConsistency(t *testing.T) {
	sc, res := buildAssigned(t, 3)
	const horizon = 30.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(5))
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	// Reward equals Σ completed-by-type × reward.
	want := 0.0
	totC, totD := 0, 0
	for i, c := range out.CompletedByType {
		want += float64(c) * sc.DC.TaskTypes[i].Reward
		totC += c
		totD += out.DroppedByType[i]
	}
	if math.Abs(want-out.TotalReward) > 1e-9 {
		t.Errorf("reward %g != per-type sum %g", out.TotalReward, want)
	}
	if totC != out.Completed || totD != out.Dropped {
		t.Error("per-type counts inconsistent with totals")
	}
	if out.BusyFraction < 0 || out.BusyFraction > 1+1e-9 {
		t.Errorf("busy fraction %g", out.BusyFraction)
	}
	// ATC sums to completed counts / horizon.
	for i := 0; i < sc.DC.T(); i++ {
		sum := 0.0
		for k := 0; k < sc.DC.NumCores(); k++ {
			sum += out.ATC(i, k)
		}
		if math.Abs(sum-float64(out.CompletedByType[i])/horizon) > 1e-9 {
			t.Errorf("type %d ATC sum %g != %g", i, sum, float64(out.CompletedByType[i])/horizon)
		}
	}
}

func TestRunDeterministic(t *testing.T) {
	sc, res := buildAssigned(t, 4)
	tasks := workload.GenerateTasks(sc.DC, 20, stats.NewRand(7))
	a, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, 20)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, 20)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalReward != b.TotalReward || a.Dropped != b.Dropped {
		t.Error("simulation not deterministic")
	}
}

func TestOversubscriptionCausesDrops(t *testing.T) {
	// Doubling every arrival rate far beyond capacity must produce drops
	// rather than crashes or deadline violations.
	sc, res := buildAssigned(t, 5)
	for i := range sc.DC.TaskTypes {
		sc.DC.TaskTypes[i].ArrivalRate *= 3
	}
	const horizon = 20.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(11))
	out, err := sim.Run(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if out.Dropped == 0 {
		t.Error("3× oversubscription should drop tasks")
	}
}

func TestTraceRecorder(t *testing.T) {
	sc, res := buildAssigned(t, 10)
	const horizon = 15.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(3))
	var records []sim.TaskRecord
	out, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon, sim.Options{
		Recorder: func(r sim.TaskRecord) { records = append(records, r) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != len(tasks) {
		t.Fatalf("trace has %d records for %d tasks", len(records), len(tasks))
	}
	dropped, completed := 0, 0
	for i, r := range records {
		if r.ID != tasks[i].ID || r.Type != tasks[i].Type {
			t.Fatal("trace order mismatch")
		}
		if r.Dropped {
			dropped++
			if r.Core != -1 {
				t.Fatal("dropped record with core assignment")
			}
			continue
		}
		completed++
		if r.Start < r.Arrival-1e-12 {
			t.Fatalf("task %d started before arrival", r.ID)
		}
		if r.Completion > r.Deadline+1e-9 {
			t.Fatalf("task %d completed after deadline", r.ID)
		}
		if r.Core < 0 || r.Core >= sc.DC.NumCores() {
			t.Fatalf("task %d on invalid core %d", r.ID, r.Core)
		}
	}
	if dropped != out.Dropped || completed != out.Completed {
		t.Fatal("trace counts disagree with result")
	}
}

// TestTraceNonOverlappingPerCore checks the fundamental execution
// invariant: a core never runs two tasks at once.
func TestTraceNonOverlappingPerCore(t *testing.T) {
	sc, res := buildAssigned(t, 11)
	const horizon = 15.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(5))
	lastEnd := make(map[int]float64)
	_, err := sim.RunOpts(sc.DC, res.PStates, res.Stage3.Dense(), tasks, horizon, sim.Options{
		Recorder: func(r sim.TaskRecord) {
			if r.Dropped {
				return
			}
			if r.Start < lastEnd[r.Core]-1e-9 {
				t.Fatalf("core %d overlap: start %g before previous end %g", r.Core, r.Start, lastEnd[r.Core])
			}
			lastEnd[r.Core] = r.Completion
		},
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scanPaper is the paper policy under another type, so ScheduleWith takes
// the candidate scan instead of the dispatch index.
type scanPaper struct{ sched.PaperPolicy }

// TestPaperScaleIndexMatchesScan simulates the paper-scale plant (150
// nodes, 3 CRACs) on the three-stage and the Baseline plan for seeds 1-3
// under the paper policy twice, once through the dispatch index and once
// through the candidate scan, and requires identical TaskRecord streams
// and Results.
func TestPaperScaleIndexMatchesScan(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale first-step solves")
	}
	const horizon = 10.0
	for seed := int64(1); seed <= 3; seed++ {
		cfg := scenario.Default(0.3, 0.1, seed)
		cfg.NCracs, cfg.NNodes = 3, 150
		sc, err := scenario.Build(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		bl, err := assign.Baseline(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		blPStates, blTC := bl.Assignment(sc.DC)
		tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(seed+500000))
		plans := []struct {
			name    string
			pstates []int
			tc      [][]float64
		}{
			{"three-stage", ts.PStates, ts.Stage3.Dense()},
			{"baseline", blPStates, blTC},
		}
		for _, plan := range plans {
			run := func(policy sched.Policy) ([]sim.TaskRecord, *sim.Result) {
				var recs []sim.TaskRecord
				out, err := sim.RunOpts(sc.DC, plan.pstates, plan.tc, tasks, horizon, sim.Options{
					Policy:   policy,
					Recorder: func(r sim.TaskRecord) { recs = append(recs, r) },
				})
				if err != nil {
					t.Fatal(err)
				}
				return recs, out
			}
			idxRecs, idxRes := run(sched.PaperPolicy{})
			scanRecs, scanRes := run(scanPaper{})
			if len(idxRecs) != len(scanRecs) {
				t.Fatalf("seed %d %s: %d records through the index, %d through the scan",
					seed, plan.name, len(idxRecs), len(scanRecs))
			}
			for n := range idxRecs {
				if idxRecs[n] != scanRecs[n] {
					t.Fatalf("seed %d %s task %d: index %+v, scan %+v", seed, plan.name, n, idxRecs[n], scanRecs[n])
				}
			}
			if !reflect.DeepEqual(idxRes, scanRes) {
				t.Fatalf("seed %d %s: results differ\nindex %+v\nscan  %+v", seed, plan.name, idxRes, scanRes)
			}
			if idxRes.Completed == 0 || idxRes.Dropped == 0 {
				t.Fatalf("seed %d %s: %d completed, %d dropped; the stream must exercise both outcomes",
					seed, plan.name, idxRes.Completed, idxRes.Dropped)
			}
		}
	}
}
