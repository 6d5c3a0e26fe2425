package controller

import (
	"math"

	"thermaldc/internal/assign"
	"thermaldc/internal/faults"
	"thermaldc/internal/model"
	"thermaldc/internal/sim"
	"thermaldc/internal/thermal"
)

// truthPlant is the physical data center as the simulator's telemetry sees
// it: the degraded model (real redlines, real flows) evaluated at the plan
// currently in force. The paper's power model is utilization-independent,
// so the plant is piecewise-constant between updates and sampling at
// update instants captures the exact maxima.
type truthPlant struct {
	tm      *thermal.Model
	redline []float64 // the base redlines: sensor bias never moves the real ones
	cap     float64
	cracOut []float64
	pcn     []float64
	by      []float64 // headroom scratch
}

func newTruthPlant(base *model.DataCenter) *truthPlant {
	return &truthPlant{redline: base.Redline()}
}

// update points the plant at plan on a degraded model of the plant's
// current state. The Truth and Planner projections differ only in their
// redlines, which the plant takes from the base, so dc and tm may be
// either view: thermal.New reads only α, flows and dimensions. Dead nodes
// draw nothing — their plan P-states are irrelevant to the physics — so
// their node power is zeroed regardless of what the (possibly stale,
// open-loop) plan assigns them.
func (p *truthPlant) update(dc *model.DataCenter, tm *thermal.Model, st *faults.State, plan *assign.ThreeStageResult) {
	pcn := assign.NodePowersFromPStates(dc, plan.PStates)
	for j, failed := range st.NodeFailed {
		if failed {
			pcn[j] = 0
		}
	}
	p.tm = tm
	p.cap = dc.Pconst
	p.cracOut = plan.Stage1.CracOut
	p.pcn = pcn
}

// project rebuilds the truth-view model of base under st and points the
// plant at plan on it: the open loop's fault hooks, which have no planner
// model to share.
func (p *truthPlant) project(base *model.DataCenter, st *faults.State, plan *assign.ThreeStageResult) error {
	truth, err := st.Degrade(base, faults.Truth)
	if err != nil {
		return err
	}
	tm, err := thermal.New(truth)
	if err != nil {
		return err
	}
	p.update(truth, tm, st, plan)
	return nil
}

// headroom reports the truth plant's current total draw, power cap, and
// per-sensor inlet headroom (redline − inlet, positive = margin). The
// headroom vector is scratch, overwritten by the next call.
// Telemetry-only companion to Sample.
func (p *truthPlant) headroom() (power, cap float64, by []float64) {
	tin := p.tm.InletTemps(p.cracOut, p.pcn)
	p.by = p.by[:0]
	for i := range tin {
		p.by = append(p.by, p.redline[i]-tin[i])
	}
	return p.tm.TotalPower(p.cracOut, p.pcn), p.cap, p.by
}

// Sample implements sim.Plant against the current truth model.
func (p *truthPlant) Sample(t float64) sim.PlantSample {
	tin := p.tm.InletTemps(p.cracOut, p.pcn)
	worst := math.Inf(-1)
	for i := range tin {
		if d := tin[i] - p.redline[i]; d > worst {
			worst = d
		}
	}
	return sim.PlantSample{
		Power:       p.tm.TotalPower(p.cracOut, p.pcn),
		PowerCap:    p.cap,
		InletExcess: worst,
	}
}
