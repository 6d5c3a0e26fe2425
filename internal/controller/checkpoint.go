package controller

import (
	"context"
	"fmt"
	"math"

	"thermaldc/internal/assign"
	"thermaldc/internal/faults"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/sched"
	"thermaldc/internal/thermal"
)

// This file implements exact checkpoint/resume for closed-loop runs.
//
// The design splits the resumable state in two:
//
//   - Persisted: the loop cursors (epoch, event and task indices), the
//     folded fault state, per-core busy times, the scheduler's ATC counts
//     and clock anchor, the plan in force, the last verified plan, and the
//     Result accumulators. These are either simulation outputs or
//     accumulators whose value depends on the whole history.
//   - Recomputed: the boundary grid, the clairvoyant node-failure
//     timeline, the degraded planner model, the thermal model and the LP
//     solver. All are pure functions of (base model, config, fault state),
//     so rebuilding them on resume reproduces the live objects exactly.
//
// Because every epoch's work is deterministic given that state, a resumed
// run produces bit-identical remaining epoch reports and totals versus an
// uninterrupted run (wall-clock fields excepted — SolveWall measures the
// machine, not the plant).

// EpochDelta is the state advance of one completed closed-loop interval:
// everything the next interval's computation depends on, plus the
// interval's EpochReport. Deltas are emitted through Config.Checkpoint in
// epoch order; folding them into a Checkpoint (see Checkpoint.Fold)
// reconstructs the full resumable state.
//
// A delta's slices and fault state are deep copies and safe to retain;
// Report.Plan is shared with the run's Result and must be treated as
// read-only.
type EpochDelta struct {
	// EvIdx and TaskIdx are the schedule-event and task-arrival cursors
	// after the interval.
	EvIdx, TaskIdx int
	// Faults is the fault state folded through the interval's boundary.
	Faults *faults.State
	// FreeAt[k] is the time core k becomes idle.
	FreeAt []float64
	// SchedCounts and SchedStart are the scheduler's ATC state (see
	// sched.Counts/StartTime).
	SchedCounts [][]int
	// SchedStart anchors the ATC rate clock.
	SchedStart float64
	// Report is the interval's telemetry, exactly as appended to
	// Result.Epochs.
	Report EpochReport
}

// CheckpointSink receives the EpochDelta of each completed closed-loop
// interval, after the interval's results are final. A non-nil error
// aborts the run: a run that cannot persist its progress must not
// pretend it can.
type CheckpointSink func(d *EpochDelta) error

// ResultState is the exported mirror of Result's accumulators, carrying
// the epoch-report retention ring's cursor so a resumed Result windows
// reports identically.
type ResultState struct {
	TotalReward              float64
	Completed, Dropped, Lost int
	Resolves, Fallbacks      int
	RungCounts               [NumRungs]int
	Retries, Violations      int
	MaxPower                 float64
	MaxPowerExcess           float64
	MaxInletExcess           float64
	LP                       linprog.Stats
	Epochs                   []EpochReport
	EpochsSeen               int
	// EpochCap and EpochNext mirror the MaxEpochReports retention ring.
	EpochCap, EpochNext int
}

// Checkpoint is the complete resumable state of a closed-loop run after
// EpochsDone completed intervals. Build one with NewCheckpoint and
// advance it with Fold, or restore a run by setting Config.Resume.
type Checkpoint struct {
	// EpochsDone counts completed intervals (the resume loop starts at
	// boundary index EpochsDone).
	EpochsDone int
	// EvIdx and TaskIdx are the loop cursors after the last interval.
	EvIdx, TaskIdx int
	// Faults is the folded fault state.
	Faults *faults.State
	// FreeAt is the per-core busy horizon.
	FreeAt []float64
	// SchedCounts and SchedStart restore the scheduler's ATC state.
	SchedCounts [][]int
	SchedStart  float64
	// Plan is the assignment in force; LastGood is the most recent plan
	// that solved successfully (they coincide except after fallback
	// epochs).
	Plan, LastGood *assign.ThreeStageResult
	// Res carries the Result accumulators.
	Res ResultState
}

// NewCheckpoint returns the empty checkpoint of a run that has completed
// zero epochs under cfg.
func NewCheckpoint(cfg Config) *Checkpoint {
	return &Checkpoint{Res: ResultState{
		MaxPowerExcess: math.Inf(-1),
		MaxInletExcess: math.Inf(-1),
		EpochCap:       cfg.MaxEpochReports,
	}}
}

// Fold advances the checkpoint by one completed interval. Applying every
// delta of a run in order reproduces — field for field, bit for bit — the
// accumulator state the live loop held after that interval, because Fold
// performs the same operations on the same recorded values in the same
// order.
func (ck *Checkpoint) Fold(d *EpochDelta) {
	ck.EpochsDone++
	ck.EvIdx, ck.TaskIdx = d.EvIdx, d.TaskIdx
	ck.Faults = d.Faults
	ck.FreeAt = d.FreeAt
	ck.SchedCounts = d.SchedCounts
	ck.SchedStart = d.SchedStart
	ck.Plan = d.Report.Plan
	if d.Report.Resolved && d.Report.Rung < RungPrevPlan {
		// Mirrors the live loop: a successful solve becomes the new
		// fallback plan; fallback epochs leave it untouched.
		ck.LastGood = d.Report.Plan
	}
	rep := d.Report
	ck.Res.fold(&rep)
}

// fold replays one epoch report into the accumulators, performing the
// identical operations (in identical order) as the live loop's resolve
// branch plus accumulate.
func (rs *ResultState) fold(rep *EpochReport) {
	if rep.Resolved {
		rs.RungCounts[rep.Rung]++
		rs.Retries += rep.Retries
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
	rs.EpochsSeen++
	if rs.EpochCap > 0 && len(rs.Epochs) == rs.EpochCap {
		rs.Epochs[rs.EpochNext] = *rep
		rs.EpochNext = (rs.EpochNext + 1) % rs.EpochCap
	} else {
		rs.Epochs = append(rs.Epochs, *rep)
	}
}

// toResult rebuilds a live Result from the restored accumulators.
func (rs *ResultState) toResult(cfg Config) *Result {
	res := newResult(cfg)
	res.TotalReward = rs.TotalReward
	res.Completed, res.Dropped, res.Lost = rs.Completed, rs.Dropped, rs.Lost
	res.Resolves, res.Fallbacks = rs.Resolves, rs.Fallbacks
	res.RungCounts = rs.RungCounts
	res.Retries, res.Violations = rs.Retries, rs.Violations
	res.MaxPower = rs.MaxPower
	res.MaxPowerExcess = rs.MaxPowerExcess
	res.MaxInletExcess = rs.MaxInletExcess
	res.LP = rs.LP
	res.Epochs = append([]EpochReport(nil), rs.Epochs...)
	res.EpochsSeen = rs.EpochsSeen
	res.epochNext = rs.EpochNext
	return res
}

// restoredRun is the live loop state rebuilt from a checkpoint.
type restoredRun struct {
	res       *Result
	st        *faults.State
	solver    *assign.ThreeStageSolver
	plannerDC *model.DataCenter
	plannerTM *thermal.Model
	plan      *assign.ThreeStageResult
	lastGood  *assign.ThreeStageResult
	s         *sched.Scheduler
	freeAt    []float64
}

// restoreClosedLoop validates a checkpoint against the run configuration
// and rebuilds every live object: the Result accumulators, the fault
// state, the degraded planner model with its thermal model and solver,
// and the scheduler with its restored ATC state.
//
// The rebuilt solver is warmed with one discarded solve (its statistics
// drained) so the next re-solving epoch reports the same LP workspace
// counters as an uninterrupted run, whose solver allocated its workspace
// epochs ago.
func restoreClosedLoop(ctx context.Context, base *model.DataCenter, cfg Config, ck *Checkpoint) (*restoredRun, error) {
	if ck.EpochsDone < 1 || ck.Plan == nil || ck.Faults == nil {
		return nil, fmt.Errorf("controller: resume checkpoint is incomplete (epochs done %d)", ck.EpochsDone)
	}
	if ck.Res.EpochCap != cfg.MaxEpochReports {
		return nil, fmt.Errorf("controller: resume checkpoint retains %d epoch reports, config wants %d",
			ck.Res.EpochCap, cfg.MaxEpochReports)
	}
	if len(ck.FreeAt) != base.NumCores() {
		return nil, fmt.Errorf("controller: resume checkpoint has %d cores, model has %d", len(ck.FreeAt), base.NumCores())
	}
	if len(ck.Faults.CracFlowFactor) != base.NCRAC() || len(ck.Faults.NodeFailed) != base.NCN() {
		return nil, fmt.Errorf("controller: resume checkpoint fault state is %d CRACs / %d nodes, model has %d / %d",
			len(ck.Faults.CracFlowFactor), len(ck.Faults.NodeFailed), base.NCRAC(), base.NCN())
	}

	st := ck.Faults.Clone()
	plannerDC, err := st.Degrade(base, faults.Planner)
	if err != nil {
		return nil, fmt.Errorf("controller: resume: %w", err)
	}
	plannerTM, err := thermal.New(plannerDC)
	if err != nil {
		return nil, fmt.Errorf("controller: resume: %w", err)
	}
	solver, err := assign.NewThreeStageSolver(plannerDC, plannerTM, cfg.Assign)
	if err != nil {
		return nil, fmt.Errorf("controller: resume: %w", err)
	}
	// Warm-up solve: allocate the LP workspaces now and discard the
	// counters, so they are not charged to the next epoch's report. The
	// outcome is irrelevant — a failing model fails identically when the
	// next epoch actually solves it.
	if _, err := guardedSolve(ctx, solver); err != nil && ctx.Err() != nil {
		return nil, fmt.Errorf("controller: resume canceled: %w", ctx.Err())
	}
	solver.TakeLPStats()

	s, err := sched.New(plannerDC, ck.Plan.PStates, ck.Plan.Stage3.TC)
	if err != nil {
		return nil, fmt.Errorf("controller: resume: %w", err)
	}
	if cfg.Recorder != nil {
		s.SetRecorder(cfg.Recorder)
	}
	if err := s.RestoreCounts(ck.SchedCounts); err != nil {
		return nil, fmt.Errorf("controller: resume: %w", err)
	}
	s.SetStartTime(ck.SchedStart)

	return &restoredRun{
		res:       ck.Res.toResult(cfg),
		st:        st,
		solver:    solver,
		plannerDC: plannerDC,
		plannerTM: plannerTM,
		plan:      ck.Plan,
		lastGood:  ck.LastGood,
		s:         s,
		freeAt:    append([]float64(nil), ck.FreeAt...),
	}, nil
}
