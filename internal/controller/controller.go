// Package controller closes the loop around the paper's two-step scheme.
// The paper solves the first step once and runs open-loop; this package
// re-runs the three-stage assignment whenever a fault (see
// internal/faults) changes the plant — lost cooling capacity, dead nodes,
// a tighter power cap, or biased sensors — so the data center keeps
// honoring its power constraint and inlet redlines while collecting as
// much reward as the degraded hardware allows.
//
// Epoch boundaries are the union of a fixed epoch grid and the fault
// instants, so the controller reacts at the moment the plant changes
// rather than up to one epoch late. Between boundaries the plant is
// constant, which is what makes the safety argument airtight: every plan
// is verified (assign.Verify) against the planner's degraded model at the
// instant it takes effect, sensor bias only ever tightens the planner's
// redlines, and Stage 2 rounds powers down — so the truth-model telemetry
// can never exceed the cap or a redline while a verified plan is in force.
//
// The open-loop mode runs the paper's original scheme against the same
// fault schedule (the plan from the healthy plant stays frozen while
// hooks degrade the plant mid-run) and is the baseline the degraded
// -operation experiment compares against.
package controller

import (
	"context"
	"fmt"
	"math"
	"sort"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/faults"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
	"thermaldc/internal/workload"
)

// Mode selects how the controller responds to faults.
type Mode int

const (
	// Reoptimize re-runs the first step at every epoch boundary where the
	// plant changed (the closed loop).
	Reoptimize Mode = iota
	// OpenLoop freezes the healthy plan and lets the faults land mid-run
	// (the paper's original scheme, as a baseline).
	OpenLoop
)

func (m Mode) String() string {
	if m == OpenLoop {
		return "open-loop"
	}
	return "re-optimizing"
}

// Config tunes a controller run.
type Config struct {
	// Horizon is the simulated window (s).
	Horizon float64
	// Epoch is the re-optimization grid spacing (s); fault instants are
	// added as extra boundaries.
	Epoch float64
	// Mode selects closed- or open-loop operation.
	Mode Mode
	// Assign configures the three-stage first step at each re-solve.
	Assign assign.Options
	// Tol is the verification tolerance (default 1e-6).
	Tol float64
	// SolveTimeout bounds the wall time of one epoch's whole trip down the
	// degradation ladder (the warm and cold rungs share the budget). Zero
	// means no deadline.
	SolveTimeout time.Duration
	// Recorder, when non-nil, publishes the run's telemetry:
	// epoch/rung/stage/LP spans on its tracer (if tracing is enabled) and
	// one EpochSample row per interval, stamped with the recorder's run
	// number, on its series sink (if one is attached). The recorder
	// is also threaded into the assignment pipeline, overriding
	// Assign.Recorder. Nil — the default — keeps the whole run on the
	// uninstrumented fast path. Telemetry never changes results.
	Recorder *telemetry.Recorder
	// Checkpoint, when non-nil, receives the EpochDelta of every completed
	// closed-loop interval (see CheckpointSink). A sink error aborts the
	// run. Nil — the default — keeps the run on the unpersisted fast path.
	// Closed loop only: open-loop runs are single-shot and restart instead.
	Checkpoint CheckpointSink
	// Resume, when non-nil, restores a closed-loop run from a checkpoint
	// instead of starting at t = 0: the loop continues at the next epoch
	// boundary and the remaining intervals compute bit-identically to an
	// uninterrupted run (wall-clock fields excepted). The configuration
	// and inputs must match the checkpointed run's; mismatches the
	// controller can detect fail loudly. The resume rebuilds the dense TC
	// of checkpoint plans that hold only their core groups, as a journal
	// stores them. Closed loop only.
	Resume *Checkpoint
}

// DefaultConfig returns a closed-loop configuration with no solve
// deadline: each epoch solve runs to completion, as in the paper.
func DefaultConfig(horizon, epoch float64) Config {
	return Config{
		Horizon: horizon,
		Epoch:   epoch,
		Mode:    Reoptimize,
		Assign:  assign.DefaultOptions(),
		Tol:     1e-6,
	}
}

// Rung identifies the degradation-ladder step that produced an epoch's
// plan. Rungs are ordered best-first; anything at RungPrevPlan or below
// means every solve attempt failed.
type Rung int

const (
	// RungWarm: the warm incremental solver succeeded (the normal path).
	RungWarm Rung = iota
	// RungCold: the warm solve failed; a freshly built solver — new LP
	// skeleton, new tableau — succeeded.
	RungCold
	// RungPrevPlan: all solves failed; the previous successfully solved
	// plan still verifies against the current planner model and stays in
	// force.
	RungPrevPlan
	// RungAllOff: last resort — every core off, zero desired rates.
	RungAllOff

	// NumRungs sizes per-rung tallies.
	NumRungs = int(RungAllOff) + 1
)

func (r Rung) String() string {
	switch r {
	case RungWarm:
		return "warm"
	case RungCold:
		return "cold"
	case RungPrevPlan:
		return "prev-plan"
	case RungAllOff:
		return "all-off"
	default:
		return fmt.Sprintf("Rung(%d)", int(r))
	}
}

// EpochReport is the telemetry of one inter-boundary interval.
type EpochReport struct {
	// Start and End bound the interval (s).
	Start, End float64
	// Resolved marks intervals that began with a first-step re-solve;
	// Fallback marks the re-solve failing and the all-off safe plan
	// taking over.
	Resolved, Fallback bool
	// Violations counts assign.Verify findings against the plan in force,
	// checked on the planner's degraded model (0 for every shipped
	// schedule).
	Violations int
	// Reward, Completed, Dropped and Lost are the interval's scheduling
	// outcomes.
	Reward                   float64
	Completed, Dropped, Lost int
	// MaxPower, MaxPowerExcess and MaxInletExcess are the truth-model
	// plant maxima over the interval (see sim.Result).
	MaxPower, MaxPowerExcess, MaxInletExcess float64
	// Plan is the assignment in force.
	Plan *assign.ThreeStageResult
	// Rung is the degradation-ladder step that produced the plan (only
	// meaningful when Resolved).
	Rung Rung
	// SolveWall is the wall time of the whole ladder trip.
	SolveWall time.Duration
	// ErrKind classifies the last solve failure (Unknown when the warm
	// solve succeeded outright).
	ErrKind solvererr.Kind
	// LP aggregates the simplex counters (solves, pivots, workspace bytes
	// allocated, …) drained from the warm solver after this epoch's ladder
	// trip. Zero when the epoch did not re-solve.
	LP linprog.Stats
}

// ResultState holds a run's totals and per-interval reports. Result
// embeds it and Checkpoint carries it, and both advance it through fold,
// so a resumed run's totals are the live loop's, bit for bit.
type ResultState struct {
	// TotalReward counts only tasks that survived (placed, not lost).
	TotalReward              float64
	Completed, Dropped, Lost int
	// Resolves and Fallbacks count first-step re-solves and safe-plan
	// activations (rungs at RungPrevPlan or below).
	Resolves, Fallbacks int
	// RungCounts tallies re-solving epochs by the ladder rung that produced
	// their plan.
	RungCounts [NumRungs]int
	// Violations sums planner-view Verify findings across all plans.
	Violations int
	// MaxPower, MaxPowerExcess and MaxInletExcess fold the per-epoch
	// truth-model maxima: Excess ≤ 0 means the cap/redlines held for the
	// whole run.
	MaxPower, MaxPowerExcess, MaxInletExcess float64
	// LP sums the per-epoch simplex counters across the run.
	LP linprog.Stats
	// Epochs holds every interval's report, oldest first.
	Epochs []EpochReport
}

func newResultState() ResultState {
	return ResultState{MaxPowerExcess: math.Inf(-1), MaxInletExcess: math.Inf(-1)}
}

// fold adds one interval's report to the totals. The closed loop, the
// open loop and Checkpoint.Fold all go through it.
func (rs *ResultState) fold(rep *EpochReport) {
	if rep.Resolved {
		rs.RungCounts[rep.Rung]++
		if rep.Fallback {
			rs.Fallbacks++
		}
		rs.Resolves++
		rs.Violations += rep.Violations
		rs.LP.Add(rep.LP)
	}
	rs.TotalReward += rep.Reward
	rs.Completed += rep.Completed
	rs.Dropped += rep.Dropped
	rs.Lost += rep.Lost
	if rep.MaxPower > rs.MaxPower {
		rs.MaxPower = rep.MaxPower
	}
	if rep.MaxPowerExcess > rs.MaxPowerExcess {
		rs.MaxPowerExcess = rep.MaxPowerExcess
	}
	if rep.MaxInletExcess > rs.MaxInletExcess {
		rs.MaxInletExcess = rep.MaxInletExcess
	}
	rs.Epochs = append(rs.Epochs, *rep)
}

// Result aggregates a controller run.
type Result struct {
	Mode    Mode
	Horizon float64
	// RewardRate = TotalReward / Horizon.
	RewardRate float64
	ResultState
}

// RunContext drives the data center through the fault schedule. The base
// model is never mutated; every epoch plans against a fresh faults.Degrade
// projection. Tasks must be sorted by arrival time. Canceling ctx stops
// the run between epochs and cuts short any in-flight solve.
// Independently, cfg.SolveTimeout derives a per-epoch deadline from ctx
// for each trip down the degradation ladder.
func RunContext(ctx context.Context, base *model.DataCenter, schedule faults.Schedule, tasks []workload.Task, cfg Config) (*Result, error) {
	if cfg.Horizon <= 0 || cfg.Epoch <= 0 {
		return nil, fmt.Errorf("controller: horizon and epoch must be positive")
	}
	if err := schedule.Validate(base.NCRAC(), base.NCN()); err != nil {
		return nil, err
	}
	if cfg.Tol <= 0 {
		cfg.Tol = 1e-6
	}
	if cfg.Recorder != nil {
		// One recorder observes the whole pipeline: the assignment solvers
		// (stage/candidate/LP spans) share it with the controller's own
		// epoch spans and samples.
		cfg.Assign.Recorder = cfg.Recorder
	}

	// Task-loss rule: a task is destroyed iff its host node dies before it
	// completes. The schedule is known (deterministic simulation), so the
	// timeline is computed clairvoyantly up front.
	failTimes := faults.NodeFailTimes(schedule, base.NCN())
	nodeOf := make([]int, 0, base.NumCores())
	for j := range base.Nodes {
		for range base.NodeType(j).NumCores {
			nodeOf = append(nodeOf, j)
		}
	}
	lost := func(core int, start, completion float64) bool {
		return completion > failTimes[nodeOf[core]]
	}

	if cfg.Mode == OpenLoop {
		if cfg.Checkpoint != nil || cfg.Resume != nil {
			return nil, fmt.Errorf("controller: open-loop runs are single-shot and do not checkpoint or resume")
		}
		return runOpenLoop(ctx, base, schedule, tasks, cfg, lost)
	}
	return runClosedLoop(ctx, base, schedule, tasks, cfg, lost)
}

// runClosedLoop re-plans at every boundary where the plant changed.
func runClosedLoop(ctx context.Context, base *model.DataCenter, schedule faults.Schedule, tasks []workload.Task, cfg Config, lost func(int, float64, float64) bool) (*Result, error) {
	bounds := boundaries(schedule, cfg.Horizon, cfg.Epoch)
	res := &Result{Mode: cfg.Mode, Horizon: cfg.Horizon, ResultState: newResultState()}
	ls := LoopState{Faults: faults.NewState(base.NCRAC(), base.NCN()), FreeAt: make([]float64, base.NumCores())}
	p := newTruthPlant(base)
	tr := cfg.Recorder.Tracer()
	series := cfg.Recorder.SeriesSink()

	var (
		solver    *assign.ThreeStageSolver
		plannerDC *model.DataCenter
		plannerTM *thermal.Model
		plan      *assign.ThreeStageResult
		lastGood  *assign.ThreeStageResult
		s         *sched.Scheduler
	)
	if ck := cfg.Resume; ck != nil {
		if err := ck.validate(base, len(schedule.Events), len(tasks), len(bounds)-1); err != nil {
			return nil, err
		}
		if err := ck.restoreTC(base); err != nil {
			return nil, err
		}
		ls = ck.LoopState.clone()
		res.ResultState = ck.Res
		res.Epochs = append([]EpochReport(nil), ck.Res.Epochs...)
		plan, lastGood = ck.Plan, ck.LastGood
		var err error
		if plannerDC, plannerTM, solver, err = newPlanner(base, ls.Faults, cfg.Assign); err != nil {
			return nil, fmt.Errorf("controller: resume: %w", err)
		}
		// Warm-up solve: an uninterrupted run's solver allocated its LP
		// workspaces epochs ago, so allocate them now and discard the
		// counters, which the next re-solving epoch would otherwise report.
		// The outcome is irrelevant: a failing model fails identically when
		// the next epoch actually solves it.
		if _, err := guardedSolve(ctx, solver); err != nil && ctx.Err() != nil {
			return nil, fmt.Errorf("controller: resume canceled: %w", ctx.Err())
		}
		solver.TakeLPStats()
		if s, err = newScheduler(plannerDC, plan, ls.SchedStart); err != nil {
			return nil, fmt.Errorf("controller: resume: %w", err)
		}
		if err := s.RestoreCounts(ls.SchedCounts); err != nil {
			return nil, fmt.Errorf("controller: resume: %w", err)
		}
	}
	st := ls.Faults
	for bi := len(res.Epochs); bi+1 < len(bounds); bi++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("controller: run canceled at t=%g: %w", bounds[bi], cerr)
		}
		clkEpoch := tr.Begin()
		a, b := bounds[bi], bounds[bi+1]

		// Fold every event at or before this boundary into the state.
		structural, changed := false, false
		for ls.EvIdx < len(schedule.Events) && schedule.Events[ls.EvIdx].Time <= a {
			if st.Apply(schedule.Events[ls.EvIdx]) {
				structural = true
			}
			changed = true
			ls.EvIdx++
		}

		rep := EpochReport{Start: a, End: b}
		if solver == nil || structural {
			// Structure changed: project the degraded model and rebuild the
			// thermal model and LP skeleton.
			var err error
			if plannerDC, plannerTM, solver, err = newPlanner(base, st, cfg.Assign); err != nil {
				return nil, err
			}
			changed = true
		} else if changed {
			// Power-cap-only change: the Stage-1 LP reads Pconst per solve,
			// so mutating it in place reuses the warm solver.
			plannerDC.Pconst = base.Pconst * st.CapFactor
		}
		if changed {
			var prevOut []float64
			if plan != nil {
				prevOut = plan.Stage1.CracOut
			}
			rebuild := func() (*assign.ThreeStageSolver, error) {
				return assign.NewThreeStageSolver(plannerDC, plannerTM, cfg.Assign)
			}
			lad := runLadder(ctx, cfg, solver, rebuild, plannerDC, plannerTM, lastGood, prevOut)
			plan = lad.plan
			adopt(plan)
			if lad.solver != nil {
				solver = lad.solver
			}
			rep.Resolved = true
			rep.Rung = lad.rung
			rep.SolveWall = lad.wall
			rep.ErrKind = solvererr.Classify(lad.lastErr)
			// Every solve attempt failed: the safe rungs took over.
			rep.Fallback = lad.rung >= RungPrevPlan
			if !rep.Fallback {
				lastGood = plan
			}
			rep.Violations = len(assign.Verify(plannerDC, plannerTM, plan, cfg.Tol))
			// Drain the warm solver's simplex counters for this epoch (a
			// cold rebuild mid-ladder forfeits the failed attempt's counts).
			rep.LP = solver.TakeLPStats()

			// A new plan means new desired rates, so the scheduler is
			// rebuilt with its ATC clock started at the boundary; core busy
			// state (FreeAt) carries across, so occupancy is continuous. Only
			// sim.RunOpts writes FreeAt, which keeps ScheduleWith's freeAt
			// contract for a scheduler carried across intervals.
			// Without a plan change the old scheduler keeps running — a
			// fault-free closed-loop run is then identical to a single
			// uninterrupted simulation.
			var err error
			if s, err = newScheduler(plannerDC, plan, a); err != nil {
				return nil, err
			}
		}
		p.update(plannerDC, plannerTM, st, plan)
		lo := ls.TaskIdx
		for ls.TaskIdx < len(tasks) && tasks[ls.TaskIdx].Arrival < b {
			ls.TaskIdx++
		}
		out, err := sim.RunOpts(plannerDC, plan.PStates, nil, tasks[lo:ls.TaskIdx], b, sim.Options{
			Start:     a,
			Scheduler: s,
			FreeAt:    ls.FreeAt,
			Plant:     p,
			Lost:      lost,
		})
		if err != nil {
			return nil, err
		}
		rep.Plan = plan
		rep.setOutcome(out)
		res.fold(&rep)
		if series != nil {
			if err := series.Write(epochSample(cfg.Recorder.Run(), len(res.Epochs)-1, &rep, p)); err != nil {
				return nil, err
			}
		}
		if cfg.Checkpoint != nil {
			d := &EpochDelta{LoopState: ls.clone(), Report: rep}
			d.SchedCounts, d.SchedStart = s.Counts(), s.StartTime()
			if err := cfg.Checkpoint(d); err != nil {
				return nil, fmt.Errorf("controller: checkpoint at t=%g: %w", b, err)
			}
		}
		tr.End(clkEpoch, telemetry.SpanEpoch, int32(len(res.Epochs)-1), rep.LP.Pivots, errBit(nil))
	}
	res.RewardRate = res.TotalReward / res.Horizon
	return res, nil
}

// newPlanner projects the planner's view of the degraded plant and builds
// its thermal model and three-stage solver.
func newPlanner(base *model.DataCenter, st *faults.State, opts assign.Options) (*model.DataCenter, *thermal.Model, *assign.ThreeStageSolver, error) {
	dc, err := st.Degrade(base, faults.Planner)
	if err != nil {
		return nil, nil, nil, err
	}
	tm, err := thermal.New(dc)
	if err != nil {
		return nil, nil, nil, err
	}
	solver, err := assign.NewThreeStageSolver(dc, tm, opts)
	if err != nil {
		return nil, nil, nil, err
	}
	return dc, tm, solver, nil
}

// adopt stores the dense TC on a plan the loop puts in force, for
// readers of Result.Epochs that take the per-core matrix (perfbench
// replays the first epoch's plan through sim.Run). The scheduler and the
// journal use the plan's groups.
func adopt(plan *assign.ThreeStageResult) {
	plan.Stage3.TC = plan.Stage3.Dense()
}

// newScheduler builds the second-step scheduler of plan from its Stage-3
// core groups, with its ATC clock started at start.
func newScheduler(dc *model.DataCenter, plan *assign.ThreeStageResult, start float64) (*sched.Scheduler, error) {
	s3 := plan.Stage3
	s, err := sched.New(dc, plan.PStates, s3.CoreGroup, s3.Tasks, s3.GroupRate)
	if err != nil {
		return nil, err
	}
	s.SetStartTime(start)
	return s, nil
}

// ladderOutcome is the result of one trip down the degradation ladder.
type ladderOutcome struct {
	plan    *assign.ThreeStageResult
	rung    Rung
	wall    time.Duration
	lastErr error
	// solver is non-nil when a cold rebuild replaced the warm solver; the
	// caller adopts it so later epochs do not reuse a poisoned skeleton.
	solver *assign.ThreeStageSolver
}

// runLadder walks the degradation ladder for one epoch boundary:
//
//	warm incremental solve → cold solve on a fresh skeleton →
//	previous verified plan (re-verified on the current model) → all off.
//
// The cold rung is the one rebuild: it recovers from a warm skeleton a
// panic left broken, and a second deterministic rebuild-and-solve could
// only fail the same way. Infeasibility and deadline expiry skip it: an
// infeasible model fails identically however often it is re-solved, and
// an expired budget leaves no time to rebuild in. Every solve attempt is
// guarded against panics, so a model-invariant violation degrades the
// epoch instead of killing the run.
func runLadder(parent context.Context, cfg Config, solver *assign.ThreeStageSolver, rebuild func() (*assign.ThreeStageSolver, error), plannerDC *model.DataCenter, plannerTM *thermal.Model, lastGood *assign.ThreeStageResult, prevOut []float64) ladderOutcome {
	start := time.Now()
	ctx := parent
	if cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, cfg.SolveTimeout)
		defer cancel()
	}
	out := ladderOutcome{}
	done := func(plan *assign.ThreeStageResult, rung Rung) ladderOutcome {
		out.plan, out.rung, out.wall = plan, rung, time.Since(start)
		return out
	}
	// attempt wraps one solve rung with a SpanRung trace record (labelled
	// by the rung being attempted) on the recorder's tracer, if any.
	tr := cfg.Recorder.Tracer()
	attempt := func(rung Rung, s *assign.ThreeStageSolver) (*assign.ThreeStageResult, error) {
		clk := tr.Begin()
		plan, err := guardedSolve(ctx, s)
		tr.End(clk, telemetry.SpanRung, int32(rung), 0, errBit(err))
		return plan, err
	}

	plan, err := attempt(RungWarm, solver)
	if err == nil {
		return done(plan, RungWarm)
	}
	out.lastErr = err

	// The cold rung runs only when a rebuild could change the outcome: not
	// after the budget expired, and not for an infeasible model
	// (deterministic — a rebuild solves the same LP).
	if k := solvererr.Classify(err); ctx.Err() == nil && k != solvererr.Infeasible && k != solvererr.Timeout {
		fresh, err := rebuild()
		if err == nil {
			out.solver = fresh
			if plan, err = attempt(RungCold, fresh); err == nil {
				return done(plan, RungCold)
			}
		}
		out.lastErr = err
	}

	if lastGood != nil && planVerifies(plannerDC, plannerTM, lastGood, cfg.Tol) {
		return done(lastGood, RungPrevPlan)
	}
	return done(fallbackPlan(plannerDC, plannerTM, cfg.Assign.Search, prevOut), RungAllOff)
}

// guardedSolve runs one solve attempt with panic recovery and converts a
// Stage-1 infeasible outcome into a classified error, so the ladder only
// ever sees (verified-feasible plan, nil) or (nil, classified error).
func guardedSolve(ctx context.Context, solver *assign.ThreeStageSolver) (plan *assign.ThreeStageResult, err error) {
	defer func() {
		if r := recover(); r != nil {
			plan = nil
			err = solvererr.New("controller", solvererr.Panic, fmt.Errorf("recovered solve panic: %v", r))
		}
	}()
	plan, err = solver.SolveContext(ctx)
	if err != nil {
		return nil, solvererr.Wrap("controller", err)
	}
	if !plan.Stage1.Feasible {
		return nil, solvererr.New("stage1", solvererr.Infeasible,
			fmt.Errorf("controller: stage-1 solution infeasible at outlets %v", plan.Stage1.CracOut))
	}
	return plan, nil
}

// planVerifies reports whether a previous plan still passes assign.Verify
// against the current planner model; a dimension mismatch (the model
// restructured since the plan was made) or a Verify panic counts as not
// verifying.
func planVerifies(dc *model.DataCenter, tm *thermal.Model, plan *assign.ThreeStageResult, tol float64) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
		}
	}()
	if len(plan.PStates) != dc.NumCores() || len(plan.Stage1.CracOut) != dc.NCRAC() {
		return false
	}
	return len(assign.Verify(dc, tm, plan, tol)) == 0
}

// runOpenLoop freezes the healthy plan and injects the faults as
// simulation hooks that mutate the physical plant mid-run.
func runOpenLoop(ctx context.Context, base *model.DataCenter, schedule faults.Schedule, tasks []workload.Task, cfg Config, lost func(int, float64, float64) bool) (*Result, error) {
	tm, err := thermal.New(base)
	if err != nil {
		return nil, err
	}
	solver, err := assign.NewThreeStageSolver(base, tm, cfg.Assign)
	if err != nil {
		return nil, err
	}
	plan, err := solver.SolveContext(ctx)
	if err != nil {
		return nil, err
	}
	adopt(plan)
	rep := EpochReport{
		End:        cfg.Horizon,
		Resolved:   true,
		Violations: len(assign.Verify(base, tm, plan, cfg.Tol)),
		Plan:       plan,
		LP:         solver.TakeLPStats(),
	}

	st := faults.NewState(base.NCRAC(), base.NCN())
	p := newTruthPlant(base)
	p.update(base, tm, st, plan) // healthy until the first hook fires
	var hookErr error
	var hooks []sim.Hook
	for _, e := range schedule.Events {
		if e.Time >= cfg.Horizon {
			continue
		}
		e := e
		hooks = append(hooks, sim.Hook{Time: e.Time, Fire: func(now float64) {
			st.Apply(e)
			if err := p.project(base, st, plan); err != nil && hookErr == nil {
				hookErr = err
			}
		}})
	}
	out, err := sim.RunOpts(base, plan.PStates, plan.Stage3.TC, tasks, cfg.Horizon, sim.Options{
		Hooks: hooks,
		Plant: p,
		Lost:  lost,
	})
	if err != nil {
		return nil, err
	}
	if hookErr != nil {
		return nil, hookErr
	}
	rep.setOutcome(out)
	res := &Result{Mode: cfg.Mode, Horizon: cfg.Horizon, ResultState: newResultState()}
	res.fold(&rep)
	res.RewardRate = res.TotalReward / res.Horizon
	// Open loop publishes one sample for the whole horizon; the plant
	// reflects its final (post-fault) state.
	if series := cfg.Recorder.SeriesSink(); series != nil {
		if err := series.Write(epochSample(cfg.Recorder.Run(), 0, &rep, p)); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// boundaries merges the epoch grid with the fault instants inside the
// horizon into a sorted, deduplicated boundary list starting at 0 and
// ending at the horizon.
func boundaries(schedule faults.Schedule, horizon, epoch float64) []float64 {
	b := []float64{0}
	for i := 1; ; i++ {
		t := float64(i) * epoch
		if t >= horizon {
			break
		}
		b = append(b, t)
	}
	for _, e := range schedule.Events {
		if e.Time > 0 && e.Time < horizon {
			b = append(b, e.Time)
		}
	}
	b = append(b, horizon)
	sort.Float64s(b)
	out := b[:1]
	for _, t := range b[1:] {
		if t > out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// fallbackPlan is the last-resort safe plan: every core off, desired
// rates zero. The CRAC outlets still matter — after a cooling fault,
// outlets carried from a healthy plan (or pinned at the CRAC redline)
// can overheat the inlets even with the fleet off — so the candidates
// (previous plan's outlets, uniform redline, then a uniform scan of the
// search lattice from hottest to coldest) are checked against the
// planner's thermal model under base power only, and the first one that
// keeps the inlets under redline and the total power under the cap wins.
// If nothing is fully feasible the least-violating candidate ships:
// best-effort, like the all-off rung it serves.
func fallbackPlan(dc *model.DataCenter, tm *thermal.Model, search tempsearch.Config, prevOut []float64) *assign.ThreeStageResult {
	pstates := make([]int, 0, dc.NumCores())
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		for range nt.NumCores {
			pstates = append(pstates, nt.OffState())
		}
	}
	npow := make([]float64, dc.NCN())
	for j := range dc.Nodes {
		npow[j] = dc.NodeType(j).BasePower
	}

	var best []float64
	bestViol := math.Inf(1)
	// consider reports whether out is fully safe for the all-off load and
	// tracks the least-violating candidate for the nothing-fits case. The
	// violation mixes kW and °C, which is fine for a last-resort ranking.
	consider := func(out []float64) bool {
		viol := math.Max(tm.TotalPower(out, npow)-dc.Pconst, -tm.RedlineSlack(tm.InletTemps(out, npow)))
		if viol < bestViol {
			bestViol = viol
			best = append([]float64(nil), out...)
		}
		return viol <= 0
	}
	safe := false
	if len(prevOut) == dc.NCRAC() {
		safe = consider(prevOut)
	}
	if !safe {
		uniform := make([]float64, dc.NCRAC())
		setAll := func(t float64) []float64 {
			for i := range uniform {
				uniform[i] = t
			}
			return uniform
		}
		safe = consider(setAll(dc.RedlineCRAC))
		step := search.FineStep
		if step <= 0 {
			step = 1
		}
		// Hottest first: less CRAC power for the same (tiny) heat load.
		for t := search.Hi; t >= search.Lo-1e-9 && !safe; t -= step {
			safe = consider(setAll(t))
		}
	}

	off := make([]int32, dc.NumCores())
	for k := range off {
		off[k] = -1 // no core executes anything
	}
	return &assign.ThreeStageResult{
		Stage1: &assign.Stage1Result{
			CracOut:       best,
			NodeCorePower: make([]float64, dc.NCN()),
			NodePower:     npow,
			Feasible:      safe,
		},
		PStates: pstates,
		Stage3:  &assign.Stage3Result{Tasks: dc.T(), CoreGroup: off},
	}
}

// setOutcome copies one interval's simulated outcome into its report.
func (rep *EpochReport) setOutcome(out *sim.Result) {
	rep.Reward = out.TotalReward
	rep.Completed, rep.Dropped, rep.Lost = out.Completed, out.Dropped, out.Lost
	rep.MaxPower, rep.MaxPowerExcess, rep.MaxInletExcess = out.MaxPower, out.MaxPowerExcess, out.MaxInletExcess
}
