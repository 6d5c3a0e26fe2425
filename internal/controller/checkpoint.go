package controller

import (
	"fmt"

	"thermaldc/internal/assign"
	"thermaldc/internal/faults"
	"thermaldc/internal/model"
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

// LoopState is the closed loop's carried state between intervals: the
// cursors, the fault state, the per-core busy horizon and the scheduler's
// ATC state. The live loop advances one, each EpochDelta carries a copy,
// and a Checkpoint holds the latest.
type LoopState struct {
	// EvIdx and TaskIdx are the schedule-event and task-arrival cursors.
	EvIdx, TaskIdx int
	// Faults is the fault state folded through the last boundary.
	Faults *faults.State
	// FreeAt[k] is the time core k becomes idle.
	FreeAt []float64
	// SchedCounts and SchedStart are the scheduler's ATC state (see
	// sched.Counts/StartTime). The live loop keeps them in its scheduler
	// and copies them out per delta.
	SchedCounts [][]int
	SchedStart  float64
}

// clone deep-copies the fault state and busy horizon, which the loop
// mutates in place. SchedCounts is shared: the scheduler copies counts in
// and out (sched.RestoreCounts/Counts) and nothing writes them in place.
func (ls *LoopState) clone() LoopState {
	c := *ls
	c.Faults = ls.Faults.Clone()
	c.FreeAt = append([]float64(nil), ls.FreeAt...)
	return c
}

// EpochDelta is the state advance of one completed closed-loop interval:
// the loop state the next interval's computation depends on, plus the
// interval's EpochReport. Deltas are emitted through Config.Checkpoint in
// epoch order; folding them into a Checkpoint (see Checkpoint.Fold)
// reconstructs the full resumable state.
//
// A delta's slices and fault state are deep copies and safe to retain;
// Report.Plan is shared with the run's Result and must be treated as
// read-only.
type EpochDelta struct {
	LoopState
	// Report is the interval's telemetry, exactly as appended to
	// Result.Epochs.
	Report EpochReport
}

// CheckpointSink receives the EpochDelta of each completed closed-loop
// interval, after the interval's results are final. A non-nil error
// aborts the run: a run that cannot persist its progress must not
// pretend it can.
type CheckpointSink func(d *EpochDelta) error

// Checkpoint is the complete resumable state of a closed-loop run after
// len(Res.Epochs) completed intervals (the resume loop starts at that
// boundary index). Build one with NewCheckpoint and advance it with Fold,
// or restore a run by setting Config.Resume.
type Checkpoint struct {
	LoopState
	// Plan is the assignment in force; LastGood is the most recent plan
	// that solved successfully (they coincide except after fallback
	// epochs).
	Plan, LastGood *assign.ThreeStageResult
	// Res carries the Result accumulators.
	Res ResultState
}

// NewCheckpoint returns the empty checkpoint of a run that has completed
// zero epochs.
func NewCheckpoint() *Checkpoint {
	return &Checkpoint{Res: newResultState()}
}

// Fold advances the checkpoint by one completed interval. Applying every
// delta of a run in order reproduces — field for field, bit for bit — the
// state the live loop held after that interval, because the totals go
// through the same ResultState.fold on the same reports. A delta read
// back from disk can hold anything, so one whose rung lies outside
// [0, NumRungs) is an error and leaves the checkpoint unchanged.
func (ck *Checkpoint) Fold(d *EpochDelta) error {
	if r := d.Report.Rung; r < 0 || int(r) >= NumRungs {
		return fmt.Errorf("controller: epoch delta has rung %d outside [0, %d)", int(r), NumRungs)
	}
	ck.LoopState = d.LoopState
	ck.Plan = d.Report.Plan
	if d.Report.Resolved && !d.Report.Fallback {
		// Mirrors the live loop: a successful solve becomes the new
		// fallback plan; fallback epochs leave it untouched.
		ck.LastGood = d.Report.Plan
	}
	ck.Res.fold(&d.Report)
	return nil
}

// validate rejects a checkpoint that cannot continue a run over base with
// nEvents fault events, nTasks arrivals and nIntervals intervals: a resume
// must recover exactly or fail loudly, never index out of range.
func (ck *Checkpoint) validate(base *model.DataCenter, nEvents, nTasks, nIntervals int) error {
	switch done := len(ck.Res.Epochs); {
	case done < 1 || ck.Faults == nil:
		return fmt.Errorf("controller: resume checkpoint is incomplete (epochs done %d)", done)
	case done > nIntervals:
		return fmt.Errorf("controller: resume checkpoint has %d epochs done but the run has only %d intervals",
			done, nIntervals)
	case ck.EvIdx < 0 || ck.EvIdx > nEvents || ck.TaskIdx < 0 || ck.TaskIdx > nTasks:
		return fmt.Errorf("controller: resume checkpoint cursors (event %d, task %d) outside the run's %d events and %d tasks",
			ck.EvIdx, ck.TaskIdx, nEvents, nTasks)
	case len(ck.FreeAt) != base.NumCores():
		return fmt.Errorf("controller: resume checkpoint has %d cores, model has %d", len(ck.FreeAt), base.NumCores())
	case len(ck.Faults.CracFlowFactor) != base.NCRAC() || len(ck.Faults.NodeFailed) != base.NCN():
		return fmt.Errorf("controller: resume checkpoint fault state is %d CRACs / %d nodes, model has %d / %d",
			len(ck.Faults.CracFlowFactor), len(ck.Faults.NodeFailed), base.NCRAC(), base.NCN())
	}
	if err := planFits(ck.Plan, base); err != nil {
		return fmt.Errorf("controller: resume checkpoint plan: %w", err)
	}
	if ck.LastGood != nil {
		if err := planFits(ck.LastGood, base); err != nil {
			return fmt.Errorf("controller: resume checkpoint last good plan: %w", err)
		}
	}
	return nil
}

// restoreTC rebuilds the dense TC of every plan in the checkpoint that
// lacks one. A journal stores each plan by core group only, and a resumed
// run's Result must hold the same plans as an uninterrupted run's, on
// which adopt has set TC. A plan whose groups do not fit base is an error.
func (ck *Checkpoint) restoreTC(base *model.DataCenter) error {
	plans := []*assign.ThreeStageResult{ck.Plan, ck.LastGood}
	for i := range ck.Res.Epochs {
		plans = append(plans, ck.Res.Epochs[i].Plan)
	}
	for _, p := range plans {
		if p == nil || p.Stage3 == nil || p.Stage3.TC != nil {
			continue
		}
		if err := groupsFit(p.Stage3, base); err != nil {
			return fmt.Errorf("controller: resume checkpoint plan: %w", err)
		}
		adopt(p)
	}
	return nil
}

// groupsFit reports a Stage-3 plan whose core groups cannot be read on
// base: the wrong core or task-type count, or a group index with no rates.
func groupsFit(s3 *assign.Stage3Result, base *model.DataCenter) error {
	t := base.T()
	if s3.Tasks != t || len(s3.CoreGroup) != base.NumCores() || t == 0 || len(s3.GroupRate)%t != 0 {
		return fmt.Errorf("%d task types, %d core groups and %d group rates, model has %d task types and %d cores",
			s3.Tasks, len(s3.CoreGroup), len(s3.GroupRate), t, base.NumCores())
	}
	for k, g := range s3.CoreGroup {
		if g < -1 || int(g) >= len(s3.GroupRate)/t {
			return fmt.Errorf("core %d is in group %d of %d", k, g, len(s3.GroupRate)/t)
		}
	}
	return nil
}

// planFits reports a plan the loop cannot carry on base: missing stages
// or P-states and CRAC outlets sized for a different data center.
func planFits(plan *assign.ThreeStageResult, base *model.DataCenter) error {
	switch {
	case plan == nil || plan.Stage1 == nil || plan.Stage3 == nil:
		return fmt.Errorf("missing")
	case len(plan.PStates) != base.NumCores() || len(plan.Stage1.CracOut) != base.NCRAC():
		return fmt.Errorf("%d P-states and %d CRAC outlets, model has %d cores and %d CRACs",
			len(plan.PStates), len(plan.Stage1.CracOut), base.NumCores(), base.NCRAC())
	}
	return nil
}
