package controller

import (
	"strconv"

	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
)

// errBit maps an error to the Span.Err convention (0 ok, 1 failed).
func errBit(err error) int32 {
	if err != nil {
		return 1
	}
	return 0
}

// runMetrics resolves every metric handle a controller run publishes, once
// per run, so the per-epoch path is a handful of atomic adds with no map
// lookups. A nil *runMetrics (no Recorder configured) makes every method a
// no-op.
type runMetrics struct {
	rec *telemetry.Recorder

	epochsByRung [NumRungs]telemetry.Counter
	epochsCarry  telemetry.Counter
	resolves     telemetry.Counter
	fallbacks    telemetry.Counter
	retries      telemetry.Counter
	violations   telemetry.Counter

	completed telemetry.Counter
	dropped   telemetry.Counter
	lostTasks telemetry.Counter
	reward    telemetry.Gauge

	power         telemetry.Gauge
	powerHeadroom telemetry.Gauge
	inletHeadroom telemetry.Gauge
	cracOut       []telemetry.Gauge

	lpSolves     telemetry.Counter
	lpPivots     telemetry.Counter
	lpBoundFlips telemetry.Counter
	lpRefreshes  telemetry.Counter
	lpAllocBytes telemetry.Counter

	solveWall telemetry.Histogram
}

// newRunMetrics registers (or re-attaches to) the controller's metrics on
// rec's registry. Returns nil when rec is nil.
func newRunMetrics(rec *telemetry.Recorder, ncrac int) *runMetrics {
	if rec == nil {
		return nil
	}
	reg := rec.Registry()
	m := &runMetrics{rec: rec}
	for r := 0; r < NumRungs; r++ {
		m.epochsByRung[r] = reg.Counter("tapo_controller_epochs_total",
			"epoch intervals by the degradation-ladder rung that produced their plan",
			"rung", Rung(r).String())
	}
	m.epochsCarry = reg.Counter("tapo_controller_epochs_total",
		"epoch intervals by the degradation-ladder rung that produced their plan",
		"rung", "carryover")
	m.resolves = reg.Counter("tapo_controller_resolves_total", "first-step re-solves")
	m.fallbacks = reg.Counter("tapo_controller_fallbacks_total",
		"epochs where every solve attempt failed and a safe rung took over")
	m.retries = reg.Counter("tapo_controller_retries_total", "backed-off cold solve retries")
	m.violations = reg.Counter("tapo_controller_violations_total",
		"planner-view assign.Verify findings against shipped plans")
	m.completed = reg.Counter("tapo_sim_tasks_completed_total", "tasks completed by deadline")
	m.dropped = reg.Counter("tapo_sim_tasks_dropped_total", "tasks dropped at admission (no deadline-feasible core)")
	m.lostTasks = reg.Counter("tapo_sim_tasks_lost_total", "tasks destroyed by node failures")
	m.reward = reg.Gauge("tapo_controller_reward_rate", "realized reward per second over the last epoch")
	m.power = reg.Gauge("tapo_plant_power_kw", "truth-plant total draw at the plan in force")
	m.powerHeadroom = reg.Gauge("tapo_plant_power_headroom_kw",
		"power cap minus truth-plant draw (negative = cap exceeded)")
	m.inletHeadroom = reg.Gauge("tapo_plant_inlet_headroom_c",
		"worst redline-minus-inlet margin over all thermal sensors (negative = redline exceeded)")
	m.cracOut = make([]telemetry.Gauge, ncrac)
	for i := range m.cracOut {
		m.cracOut[i] = reg.Gauge("tapo_plant_crac_out_c", "CRAC outlet setpoint of the plan in force",
			"crac", strconv.Itoa(i))
	}
	m.lpSolves = reg.Counter("tapo_lp_solves_total", "simplex solves drained from the warm solver")
	m.lpPivots = reg.Counter("tapo_lp_pivots_total", "simplex pivots")
	m.lpBoundFlips = reg.Counter("tapo_lp_bound_flips_total", "simplex bound flips")
	m.lpRefreshes = reg.Counter("tapo_lp_refreshes_total", "full reduced-cost recomputations")
	m.lpAllocBytes = reg.Counter("tapo_lp_alloc_bytes_total", "bytes of simplex workspace growth")
	m.solveWall = reg.Histogram("tapo_controller_solve_wall_seconds",
		"wall time of one epoch's whole degradation-ladder trip",
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5})
	return m
}

// epochSample builds the exported row of interval epoch from its report
// and the truth plant in force over it. The plant is piecewise-constant
// over the interval, so the sample is exact, not an instant snapshot. The
// per-sensor headroom aliases the plant's scratch: the sample is valid
// until the next one is built, which is long enough for the series sink
// and the flight recorder.
func epochSample(epoch int, rep *EpochReport, p *truthPlant) *telemetry.EpochSample {
	power, cap, by := p.headroom()
	worst := 0.0
	for i, h := range by {
		if i == 0 || h < worst {
			worst = h
		}
	}
	samp := &telemetry.EpochSample{
		Epoch:                  epoch,
		TStart:                 rep.Start,
		TEnd:                   rep.End,
		Resolved:               rep.Resolved,
		Completed:              rep.Completed,
		Dropped:                rep.Dropped,
		Lost:                   rep.Lost,
		Violations:             rep.Violations,
		Retries:                rep.Retries,
		SolveWallS:             rep.SolveWall.Seconds(),
		PowerKW:                power,
		PowerHeadroomKW:        cap - power,
		InletHeadroomC:         worst,
		InletHeadroomBySensorC: by,
		CracOutC:               p.cracOut,
		LPSolves:               rep.LP.Solves,
		LPPivots:               rep.LP.Pivots,
		LPAllocBytes:           rep.LP.AllocBytes,
	}
	if dt := rep.End - rep.Start; dt > 0 {
		samp.RewardRate = rep.Reward / dt
	}
	if rep.Resolved {
		samp.Rung = rep.Rung.String()
	}
	if rep.ErrKind != solvererr.Unknown {
		samp.ErrKind = rep.ErrKind.String()
	}
	return samp
}

// emitEpoch publishes one interval's outcomes: counters from its report,
// gauges from its sample, and the sample itself as one row on the
// recorder's series sink (when one is attached), which stamps its Run.
func (m *runMetrics) emitEpoch(rep *EpochReport, samp *telemetry.EpochSample) error {
	if m == nil {
		return nil
	}
	if rep.Resolved {
		m.epochsByRung[rep.Rung].Inc()
		m.resolves.Inc()
		m.solveWall.Observe(samp.SolveWallS)
	} else {
		m.epochsCarry.Inc()
	}
	if rep.Fallback {
		m.fallbacks.Inc()
	}
	m.retries.Add(int64(rep.Retries))
	m.violations.Add(int64(rep.Violations))
	m.completed.Add(int64(rep.Completed))
	m.dropped.Add(int64(rep.Dropped))
	m.lostTasks.Add(int64(rep.Lost))

	m.reward.Set(samp.RewardRate)
	m.power.Set(samp.PowerKW)
	m.powerHeadroom.Set(samp.PowerHeadroomKW)
	m.inletHeadroom.Set(samp.InletHeadroomC)
	for i, c := range samp.CracOutC {
		if i < len(m.cracOut) {
			m.cracOut[i].Set(c)
		}
	}

	m.lpSolves.Add(rep.LP.Solves)
	m.lpPivots.Add(rep.LP.Pivots)
	m.lpBoundFlips.Add(rep.LP.BoundFlips)
	m.lpRefreshes.Add(rep.LP.Refreshes)
	m.lpAllocBytes.Add(rep.LP.AllocBytes)

	jw := m.rec.SeriesSink()
	samp.Run = jw.Run()
	return jw.Write(*samp)
}
