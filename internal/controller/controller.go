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
	"thermaldc/internal/flightrec"
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
	// degradation ladder (warm, cold, and retry rungs share the budget).
	// Zero means no deadline.
	SolveTimeout time.Duration
	// SolveRetries is how many extra cold rebuild-and-solve attempts the
	// retry rung makes before the ladder falls to the previous plan.
	SolveRetries int
	// RetryBackoff is the pause before the first retry attempt; it doubles
	// per attempt and is cut short by the SolveTimeout deadline.
	RetryBackoff time.Duration
	// Recorder, when non-nil, publishes the run's telemetry: per-epoch
	// counters and gauges on its metrics registry, epoch/rung/stage/LP
	// spans on its tracer (if tracing is enabled), and one EpochSample row
	// per interval on its series sink (if one is attached). The recorder
	// is also threaded into the assignment pipeline, overriding
	// Assign.Recorder. Nil — the default — keeps the whole run on the
	// uninstrumented fast path. Telemetry never changes results.
	Recorder *telemetry.Recorder
	// MaxEpochReports bounds Result.Epochs: 0 (the default) keeps every
	// per-interval report, preserving historical behavior; N > 0 retains
	// only the last N reports (older ones are evicted as the run
	// progresses, keeping memory flat on long horizons). Run totals and
	// Result.EpochsSeen always cover the whole run — only the per-interval
	// detail is windowed.
	MaxEpochReports int
	// Checkpoint, when non-nil, receives the EpochDelta of every completed
	// closed-loop interval (see CheckpointSink). A sink error aborts the
	// run. Nil — the default — keeps the run on the unpersisted fast path.
	// Closed loop only: open-loop runs are single-shot and restart instead.
	Checkpoint CheckpointSink
	// FlightRec, when non-nil, arms the failure flight recorder (closed
	// loop only): any epoch that engages the degradation ladder above
	// warm, fails plan verification, or ends with a classified solver
	// error dumps a diagnostic bundle —
	// recent spans, metrics snapshot, the epoch's sample, fault state, LP
	// stats — to the recorder's directory (rate-limited and bounded; see
	// internal/flightrec). Dump failures are logged, never fatal: the
	// black box must not take down the plane. Telemetry never changes
	// results.
	FlightRec *flightrec.Recorder
	// Resume, when non-nil, restores a closed-loop run from a checkpoint
	// instead of starting at t = 0: the loop continues at the next epoch
	// boundary and the remaining intervals compute bit-identically to an
	// uninterrupted run (wall-clock fields excepted). The configuration
	// and inputs must match the checkpointed run's; mismatches the
	// controller can detect fail loudly. Closed loop only.
	Resume *Checkpoint
}

// DefaultConfig returns a closed-loop configuration: no solve deadline
// (each epoch solve runs to completion, as in the paper) and one cold
// retry should a solve ever fail.
func DefaultConfig(horizon, epoch float64) Config {
	return Config{
		Horizon:      horizon,
		Epoch:        epoch,
		Mode:         Reoptimize,
		Assign:       assign.DefaultOptions(),
		Tol:          1e-6,
		SolveRetries: 1,
		RetryBackoff: 25 * time.Millisecond,
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
	// RungRetry: a backed-off cold retry succeeded within the time budget.
	RungRetry
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
	case RungRetry:
		return "retry"
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
	// Retries counts backed-off retry attempts spent on this solve.
	Retries int
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

// Result aggregates a controller run.
type Result struct {
	Mode    Mode
	Horizon float64
	// TotalReward counts only tasks that survived (placed, not lost);
	// RewardRate = TotalReward / Horizon.
	TotalReward, RewardRate  float64
	Completed, Dropped, Lost int
	// Resolves and Fallbacks count first-step re-solves and safe-plan
	// activations (rungs at RungPrevPlan or below).
	Resolves, Fallbacks int
	// RungCounts tallies epochs by the ladder rung that produced their
	// plan; Retries totals backed-off retry attempts across the run.
	RungCounts [NumRungs]int
	Retries    int
	// Violations sums planner-view Verify findings across all plans.
	Violations int
	// MaxPower, MaxPowerExcess and MaxInletExcess fold the per-epoch
	// truth-model maxima: Excess ≤ 0 means the cap/redlines held for the
	// whole run.
	MaxPower, MaxPowerExcess, MaxInletExcess float64
	// LP sums the per-epoch simplex counters across the run.
	LP linprog.Stats
	// Epochs holds the per-interval telemetry. With Config.MaxEpochReports
	// set it is a window over the last reports only (chronological after
	// the run finishes); EpochsSeen counts every interval regardless.
	Epochs     []EpochReport
	EpochsSeen int

	// epochCap/epochNext implement the MaxEpochReports retention ring:
	// when the cap is hit, accumulate overwrites the oldest slot and
	// finish rotates the ring back into chronological order.
	epochCap  int
	epochNext int
}

// Run drives the data center through the fault schedule. The base model is
// never mutated; every epoch plans against a fresh faults.Degrade
// projection. Tasks must be sorted by arrival time.
func Run(base *model.DataCenter, schedule faults.Schedule, tasks []workload.Task, cfg Config) (*Result, error) {
	return RunContext(context.Background(), base, schedule, tasks, cfg)
}

// RunContext is Run under a context: canceling ctx stops the run between
// epochs and cuts short any in-flight solve. Independently,
// cfg.SolveTimeout derives a per-epoch deadline from ctx for each trip
// down the degradation ladder.
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
		// (stage/candidate/LP spans, solve counters) share it with the
		// controller's own epoch metrics.
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
	st := faults.NewState(base.NCRAC(), base.NCN())
	res := newResult(cfg)
	p := &truthPlant{}
	m := newRunMetrics(cfg.Recorder, base.NCRAC())
	tr := cfg.Recorder.Tracer()

	var (
		solver    *assign.ThreeStageSolver
		plannerDC *model.DataCenter
		plannerTM *thermal.Model
		plan      *assign.ThreeStageResult
		lastGood  *assign.ThreeStageResult
		s         *sched.Scheduler
	)
	freeAt := make([]float64, base.NumCores())
	evIdx := 0
	taskIdx := 0
	startBi := 0
	if ck := cfg.Resume; ck != nil {
		r, err := restoreClosedLoop(ctx, base, cfg, ck)
		if err != nil {
			return nil, err
		}
		res, st = r.res, r.st
		solver, plannerDC, plannerTM = r.solver, r.plannerDC, r.plannerTM
		plan, lastGood, s = r.plan, r.lastGood, r.s
		freeAt = r.freeAt
		evIdx, taskIdx, startBi = ck.EvIdx, ck.TaskIdx, ck.EpochsDone
		if startBi > len(bounds)-1 {
			return nil, fmt.Errorf("controller: resume checkpoint has %d epochs done but the run has only %d intervals",
				startBi, len(bounds)-1)
		}
	}
	for bi := startBi; bi+1 < len(bounds); bi++ {
		if cerr := ctx.Err(); cerr != nil {
			return nil, fmt.Errorf("controller: run canceled at t=%g: %w", bounds[bi], cerr)
		}
		clkEpoch := tr.Begin()
		a, b := bounds[bi], bounds[bi+1]

		// Fold every event at or before this boundary into the state.
		structural, changed := false, false
		for evIdx < len(schedule.Events) && schedule.Events[evIdx].Time <= a {
			if st.Apply(schedule.Events[evIdx]) {
				structural = true
			}
			changed = true
			evIdx++
		}

		rep := EpochReport{Start: a, End: b}
		if solver == nil || structural {
			// Structure changed: project the degraded model and rebuild the
			// thermal model and LP skeleton.
			var err error
			plannerDC, err = st.Degrade(base, faults.Planner)
			if err != nil {
				return nil, err
			}
			plannerTM, err = thermal.New(plannerDC)
			if err != nil {
				return nil, err
			}
			solver, err = assign.NewThreeStageSolver(plannerDC, plannerTM, cfg.Assign)
			if err != nil {
				return nil, err
			}
			changed = true
		} else if changed {
			// Power-cap-only change: the Stage-1 LP reads Pconst per solve,
			// so mutating it in place reuses the warm solver.
			plannerDC.Pconst = base.Pconst * st.CapFactor
		}
		if changed || plan == nil {
			var prevOut []float64
			if plan != nil {
				prevOut = plan.Stage1.CracOut
			}
			rebuild := func() (*assign.ThreeStageSolver, error) {
				return assign.NewThreeStageSolver(plannerDC, plannerTM, cfg.Assign)
			}
			lad := runLadder(ctx, cfg, solver, rebuild, plannerDC, plannerTM, lastGood, prevOut)
			plan = lad.plan
			if lad.solver != nil {
				solver = lad.solver
			}
			rep.Rung = lad.rung
			rep.Retries = lad.retries
			rep.SolveWall = lad.wall
			rep.ErrKind = solvererr.Classify(lad.lastErr)
			res.RungCounts[lad.rung]++
			res.Retries += lad.retries
			if lad.rung >= RungPrevPlan {
				// Every solve attempt failed: the safe rungs took over.
				rep.Fallback = true
				res.Fallbacks++
			} else {
				lastGood = plan
			}
			rep.Resolved = true
			res.Resolves++
			rep.Violations = len(assign.Verify(plannerDC, plannerTM, plan, cfg.Tol))
			res.Violations += rep.Violations
			// Drain the warm solver's simplex counters for this epoch (a
			// cold rebuild mid-ladder forfeits the failed attempt's counts).
			rep.LP = solver.TakeLPStats()
			res.LP.Add(rep.LP)

			// A new plan means new desired rates, so the scheduler is
			// rebuilt with its ATC clock started at the boundary; core busy
			// state (freeAt) carries across, so occupancy is continuous. Only
			// sim.RunOpts writes freeAt, which keeps ScheduleWith's freeAt
			// contract for a scheduler carried across intervals.
			// Without a plan change the old scheduler keeps running — a
			// fault-free closed-loop run is then identical to a single
			// uninterrupted simulation.
			var err error
			s, err = sched.New(plannerDC, plan.PStates, plan.Stage3.TC)
			if err != nil {
				return nil, err
			}
			if cfg.Recorder != nil {
				s.SetRecorder(cfg.Recorder)
			}
			s.SetStartTime(a)
		}
		if err := p.update(base, st, plan); err != nil {
			return nil, err
		}
		lo := taskIdx
		for taskIdx < len(tasks) && tasks[taskIdx].Arrival < b {
			taskIdx++
		}
		out, err := sim.RunOpts(plannerDC, plan.PStates, plan.Stage3.TC, tasks[lo:taskIdx], b, sim.Options{
			Start:     a,
			Scheduler: s,
			FreeAt:    freeAt,
			Plant:     p,
			Lost:      lost,
		})
		if err != nil {
			return nil, err
		}
		rep.Plan = plan
		accumulate(res, &rep, out)
		samp, err := m.emitEpoch(res, &rep, p, cfg.FlightRec != nil)
		if err != nil {
			return nil, err
		}
		recordFlight(cfg, res, &rep, st, samp)
		if cfg.Checkpoint != nil {
			d := &EpochDelta{
				EvIdx:       evIdx,
				TaskIdx:     taskIdx,
				Faults:      st.Clone(),
				FreeAt:      append([]float64(nil), freeAt...),
				SchedCounts: s.Counts(),
				SchedStart:  s.StartTime(),
				Report:      rep,
			}
			if err := cfg.Checkpoint(d); err != nil {
				return nil, fmt.Errorf("controller: checkpoint at t=%g: %w", b, err)
			}
		}
		tr.End(clkEpoch, telemetry.SpanEpoch, int32(res.EpochsSeen-1), rep.LP.Pivots, errBit(nil))
	}
	finish(res)
	return res, nil
}

// ladderOutcome is the result of one trip down the degradation ladder.
type ladderOutcome struct {
	plan    *assign.ThreeStageResult
	rung    Rung
	retries int
	wall    time.Duration
	lastErr error
	// solver is non-nil when a cold rebuild replaced the warm solver; the
	// caller adopts it so later epochs do not reuse a poisoned skeleton.
	solver *assign.ThreeStageSolver
}

// runLadder walks the degradation ladder for one epoch boundary:
//
//	warm incremental solve → cold solve on a fresh skeleton →
//	backed-off cold retries within the time budget →
//	previous verified plan (re-verified on the current model) → all off.
//
// Infeasibility and deadline expiry short-circuit the solve rungs: an
// infeasible model fails identically however often it is re-solved, and
// an expired budget leaves no time to retry in. Every solve attempt is
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
	// solvable reports whether another solve attempt could change the
	// outcome: not after the budget expired, and not for an infeasible
	// model (deterministic — a rebuild solves the same LP).
	solvable := func() bool {
		if ctx.Err() != nil {
			return false
		}
		switch solvererr.Classify(out.lastErr) {
		case solvererr.Infeasible, solvererr.Timeout:
			return false
		}
		return true
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

	if plan, err := attempt(RungWarm, solver); err == nil {
		return done(plan, RungWarm)
	} else {
		out.lastErr = err
	}

	if solvable() {
		if fresh, err := rebuild(); err != nil {
			out.lastErr = err
		} else {
			out.solver = fresh
			if plan, err := attempt(RungCold, fresh); err == nil {
				return done(plan, RungCold)
			} else {
				out.lastErr = err
			}
		}
	}

	backoff := cfg.RetryBackoff
	for i := 0; i < cfg.SolveRetries && solvable(); i++ {
		if backoff > 0 {
			t := time.NewTimer(backoff)
			select {
			case <-ctx.Done():
				t.Stop()
			case <-t.C:
			}
			backoff *= 2
			if ctx.Err() != nil {
				break
			}
		}
		out.retries++
		fresh, err := rebuild()
		if err != nil {
			out.lastErr = err
			continue
		}
		out.solver = fresh
		if plan, err := attempt(RungRetry, fresh); err == nil {
			return done(plan, RungRetry)
		} else {
			out.lastErr = err
		}
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
	res := newResult(cfg)
	res.Resolves = 1
	res.Violations = len(assign.Verify(base, tm, plan, cfg.Tol))
	res.LP = solver.TakeLPStats()

	st := faults.NewState(base.NCRAC(), base.NCN())
	p := &truthPlant{}
	if err := p.update(base, st, plan); err != nil {
		return nil, err
	}
	var hookErr error
	var hooks []sim.Hook
	for _, e := range schedule.Events {
		if e.Time >= cfg.Horizon {
			continue
		}
		e := e
		hooks = append(hooks, sim.Hook{Time: e.Time, Fire: func(now float64) {
			st.Apply(e)
			if err := p.update(base, st, plan); err != nil && hookErr == nil {
				hookErr = err
			}
		}})
	}
	out, err := sim.RunOpts(base, plan.PStates, plan.Stage3.TC, tasks, cfg.Horizon, sim.Options{
		Hooks:     hooks,
		Plant:     p,
		Lost:      lost,
		Telemetry: cfg.Recorder,
	})
	if err != nil {
		return nil, err
	}
	if hookErr != nil {
		return nil, hookErr
	}
	rep := EpochReport{Start: 0, End: cfg.Horizon, Resolved: true, Violations: res.Violations, Plan: plan, LP: res.LP}
	accumulate(res, &rep, out)
	// Open loop publishes one sample for the whole horizon; the plant
	// reflects its final (post-fault) state.
	if _, err := newRunMetrics(cfg.Recorder, base.NCRAC()).emitEpoch(res, &rep, p, false); err != nil {
		return nil, err
	}
	finish(res)
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

	tc := make([][]float64, dc.T())
	for i := range tc {
		tc[i] = make([]float64, dc.NumCores())
	}
	return &assign.ThreeStageResult{
		Stage1: &assign.Stage1Result{
			CracOut:       best,
			NodeCorePower: make([]float64, dc.NCN()),
			NodePower:     npow,
			Feasible:      safe,
		},
		PStates: pstates,
		Stage3:  &assign.Stage3Result{TC: tc, CoreUtilization: make([]float64, dc.NumCores())},
	}
}

func newResult(cfg Config) *Result {
	return &Result{
		Mode:           cfg.Mode,
		Horizon:        cfg.Horizon,
		MaxPowerExcess: math.Inf(-1),
		MaxInletExcess: math.Inf(-1),
		epochCap:       cfg.MaxEpochReports,
	}
}

// accumulate folds one interval's sim result into the epoch report and the
// run totals.
func accumulate(res *Result, rep *EpochReport, out *sim.Result) {
	rep.Reward = out.TotalReward
	rep.Completed, rep.Dropped, rep.Lost = out.Completed, out.Dropped, out.Lost
	rep.MaxPower, rep.MaxPowerExcess, rep.MaxInletExcess = out.MaxPower, out.MaxPowerExcess, out.MaxInletExcess
	res.TotalReward += out.TotalReward
	res.Completed += out.Completed
	res.Dropped += out.Dropped
	res.Lost += out.Lost
	if out.MaxPower > res.MaxPower {
		res.MaxPower = out.MaxPower
	}
	if out.MaxPowerExcess > res.MaxPowerExcess {
		res.MaxPowerExcess = out.MaxPowerExcess
	}
	if out.MaxInletExcess > res.MaxInletExcess {
		res.MaxInletExcess = out.MaxInletExcess
	}
	res.EpochsSeen++
	if res.epochCap > 0 && len(res.Epochs) == res.epochCap {
		res.Epochs[res.epochNext] = *rep
		res.epochNext = (res.epochNext + 1) % res.epochCap
	} else {
		res.Epochs = append(res.Epochs, *rep)
	}
}

func finish(res *Result) {
	if res.Horizon > 0 {
		res.RewardRate = res.TotalReward / res.Horizon
	}
	// Unwind the retention ring so Epochs reads oldest-first.
	if res.epochNext > 0 {
		rot := make([]EpochReport, 0, len(res.Epochs))
		rot = append(rot, res.Epochs[res.epochNext:]...)
		rot = append(rot, res.Epochs[:res.epochNext]...)
		res.Epochs = rot
		res.epochNext = 0
	}
}
