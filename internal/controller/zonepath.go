package controller

import (
	"context"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
	"thermaldc/internal/zones"
)

// zonePath is the controller's zone-decomposed Stage-1 fast path (see
// Config.ZoneFastPath). It is rebuilt whenever the planner model is —
// structural faults can change the floor's thermal structure — and holds
// the price-coordinated zone solver over the current planner model.
type zonePath struct {
	solver *zones.Solver
}

// newZonePath partitions the planner model and prepares a zone solver for
// it. It returns nil — disabling the fast path until the next structural
// rebuild — when the floor does not decompose into at least two zones,
// when ψ is unset (the zone solver could not reproduce the monolithic
// envelopes), or when construction fails; the controller then stays on
// the monolithic ladder, which is always correct.
func newZonePath(dc *model.DataCenter, tm *thermal.Model, cfg Config) *zonePath {
	if cfg.Assign.Psi <= 0 {
		return nil
	}
	part, err := zones.PartitionDataCenter(dc, 0)
	if err != nil || len(part.Zones) < 2 {
		return nil
	}
	zs, err := zones.NewSolverFromPartition(part, tm, zones.Config{
		Psi:         cfg.Assign.Psi,
		Parallelism: cfg.Assign.Search.Parallelism,
		Recorder:    cfg.Recorder,
	})
	if err != nil {
		return nil
	}
	return &zonePath{solver: zs}
}

// try runs one pinned-outlet zone-decomposed solve: Stage 1 through the
// zone solver at the previous plan's outlets (a budget-only re-solve per
// zone on its retained workspace), then Stages 2–3 on the retained monolithic skeletons. The plan ships only if
// it passes the same assign.Verify gate every laddered plan passes;
// any failure — infeasible zones, unconverged coordination, a verify
// finding, even a panic — reports ok=false and the caller falls back to
// the full ladder. Safety is therefore identical to the monolithic path.
func (z *zonePath) try(parent context.Context, cfg Config, ts *assign.ThreeStageSolver, dc *model.DataCenter, tm *thermal.Model, out []float64) (plan *assign.ThreeStageResult, wall time.Duration, ok bool) {
	start := time.Now()
	ctx := parent
	if cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(parent, cfg.SolveTimeout)
		defer cancel()
	}
	defer func() {
		wall = time.Since(start)
		if recover() != nil {
			plan, ok = nil, false
		}
	}()
	s1, err := z.solver.Solve(ctx, out)
	if err != nil || !s1.Feasible {
		return nil, 0, false
	}
	p, err := ts.FinishFromStage1(ctx, s1)
	if err != nil {
		return nil, 0, false
	}
	if !planVerifies(dc, tm, p, cfg.Tol) {
		return nil, 0, false
	}
	return p, 0, true
}
