// Package faults models mid-run disturbances in a power-constrained data
// center: CRAC degradation and outage, compute-node failure, power-cap
// step changes, and thermal-sensor bias. The paper's two-step scheme
// (Section V) chooses CRAC outlets, P-states, and TC once and runs
// open-loop; real facilities lose cooling capacity, nodes, and power
// headroom mid-run (Van Damme et al., arXiv:1611.00522; Ogura et al.,
// arXiv:1806.03375 both close the loop for exactly this reason).
//
// A Schedule is a deterministic, time-sorted list of Events — either
// hand-built or drawn from a seeded generator (see Generate) — and a State
// is the cumulative effect of the events applied so far. State.Degrade
// projects the base data-center model onto the degraded one the controller
// re-optimizes against:
//
//   - CRAC degradation/outage scales the unit's air flow (an outage keeps
//     OutageFlowFactor of the flow: the blower idles on backup power and
//     moves almost no air).
//   - A failed node is remapped to a "failed" variant of its node type
//     with zero base power and an all-zero ECS column, so every layer
//     downstream (Stage-1 ARR envelopes, Stage-2 rounding, Stage-3 rates,
//     the dynamic scheduler's eligibility lists) routes around it without
//     special cases. Core indexing is unchanged, so scheduler busy state
//     carries across the failure.
//   - A power-cap step scales Pconst (grid curtailment).
//   - A sensor offset models inlet sensors reading high by a fixed bias;
//     the planner compensates by tightening every redline by the bias, so
//     plans remain safe against the true temperatures.
//
// Everything here is pure data transformation: deterministic, allocation
// only, no clock and no randomness beyond the seeded generator.
package faults

import (
	"fmt"
	"math"
	"sort"

	"thermaldc/internal/model"
)

// Kind enumerates the fault classes.
type Kind int

const (
	// CRACDegrade scales a CRAC's air flow by Magnitude ∈ (0, 1).
	CRACDegrade Kind = iota
	// CRACOutage drops a CRAC to OutageFlowFactor of its flow (Magnitude
	// is ignored).
	CRACOutage
	// NodeFail permanently kills compute node Unit (no repair).
	NodeFail
	// PowerCap scales the facility power constraint Pconst by
	// Magnitude ∈ (0, 1].
	PowerCap
	// SensorOffset raises the inlet-temperature sensor bias to Magnitude
	// °C (sensors read high; the planner tightens redlines to compensate).
	SensorOffset
	numKinds
)

// String names the kind for reports.
func (k Kind) String() string {
	switch k {
	case CRACDegrade:
		return "crac-degrade"
	case CRACOutage:
		return "crac-outage"
	case NodeFail:
		return "node-fail"
	case PowerCap:
		return "power-cap"
	case SensorOffset:
		return "sensor-offset"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// OutageFlowFactor is the residual air flow of a CRAC in outage: the unit
// no longer chills, but backup fans keep a trickle of air moving so the
// heat-flow fixed point stays well posed.
const OutageFlowFactor = 0.1

// Event is one timestamped disturbance.
type Event struct {
	// Time is the simulation timestamp in seconds.
	Time float64
	// Kind selects the fault class.
	Kind Kind
	// Unit is the CRAC index (CRACDegrade/CRACOutage) or node index
	// (NodeFail); unused otherwise.
	Unit int
	// Magnitude is the flow factor (CRACDegrade), Pconst factor
	// (PowerCap), or sensor bias in °C (SensorOffset).
	Magnitude float64
}

func (e Event) String() string {
	switch e.Kind {
	case CRACDegrade:
		return fmt.Sprintf("t=%.1fs %s crac %d flow ×%.2f", e.Time, e.Kind, e.Unit, e.Magnitude)
	case CRACOutage:
		return fmt.Sprintf("t=%.1fs %s crac %d", e.Time, e.Kind, e.Unit)
	case NodeFail:
		return fmt.Sprintf("t=%.1fs %s node %d", e.Time, e.Kind, e.Unit)
	case PowerCap:
		return fmt.Sprintf("t=%.1fs %s Pconst ×%.2f", e.Time, e.Kind, e.Magnitude)
	case SensorOffset:
		return fmt.Sprintf("t=%.1fs %s +%.2f °C", e.Time, e.Kind, e.Magnitude)
	default:
		return fmt.Sprintf("t=%.1fs %s", e.Time, e.Kind)
	}
}

// validate checks one event against the data-center dimensions.
func (e Event) validate(ncrac, nnodes int) error {
	if e.Time < 0 || math.IsNaN(e.Time) || math.IsInf(e.Time, 0) {
		return fmt.Errorf("faults: event %v has invalid time", e)
	}
	switch e.Kind {
	case CRACDegrade:
		if e.Unit < 0 || e.Unit >= ncrac {
			return fmt.Errorf("faults: event %v targets unknown CRAC", e)
		}
		if e.Magnitude <= 0 || e.Magnitude >= 1 {
			return fmt.Errorf("faults: event %v flow factor outside (0, 1)", e)
		}
	case CRACOutage:
		if e.Unit < 0 || e.Unit >= ncrac {
			return fmt.Errorf("faults: event %v targets unknown CRAC", e)
		}
	case NodeFail:
		if e.Unit < 0 || e.Unit >= nnodes {
			return fmt.Errorf("faults: event %v targets unknown node", e)
		}
	case PowerCap:
		if e.Magnitude <= 0 || e.Magnitude > 1 {
			return fmt.Errorf("faults: event %v cap factor outside (0, 1]", e)
		}
	case SensorOffset:
		if e.Magnitude < 0 || math.IsNaN(e.Magnitude) {
			return fmt.Errorf("faults: event %v has negative sensor bias (sensors reading low would let the planner overshoot the true redlines)", e)
		}
	default:
		return fmt.Errorf("faults: event %v has unknown kind", e)
	}
	return nil
}

// Schedule is a time-sorted fault sequence for one run.
type Schedule struct {
	Events []Event
}

// Sort orders the events by time, breaking ties by (kind, unit, magnitude)
// so a schedule renders and replays deterministically regardless of how it
// was assembled.
func (s *Schedule) Sort() {
	sort.SliceStable(s.Events, func(a, b int) bool {
		ea, eb := s.Events[a], s.Events[b]
		if ea.Time != eb.Time {
			return ea.Time < eb.Time
		}
		if ea.Kind != eb.Kind {
			return ea.Kind < eb.Kind
		}
		if ea.Unit != eb.Unit {
			return ea.Unit < eb.Unit
		}
		return ea.Magnitude < eb.Magnitude
	})
}

// Validate checks every event against the data-center dimensions and that
// the schedule is sorted.
func (s *Schedule) Validate(ncrac, nnodes int) error {
	for i, e := range s.Events {
		if err := e.validate(ncrac, nnodes); err != nil {
			return err
		}
		if i > 0 && e.Time < s.Events[i-1].Time {
			return fmt.Errorf("faults: schedule not sorted at event %d (%v)", i, e)
		}
	}
	return nil
}

// State is the cumulative effect of every event applied so far.
type State struct {
	// CracFlowFactor[i] ∈ (0, 1] scales CRAC i's air flow.
	CracFlowFactor []float64
	// NodeFailed[j] marks node j dead (permanently).
	NodeFailed []bool
	// CapFactor ∈ (0, 1] scales Pconst.
	CapFactor float64
	// SensorBias is the inlet-sensor bias in °C (≥ 0).
	SensorBias float64
}

// NewState returns the healthy state for the given dimensions.
func NewState(ncrac, nnodes int) *State {
	st := &State{
		CracFlowFactor: make([]float64, ncrac),
		NodeFailed:     make([]bool, nnodes),
		CapFactor:      1,
	}
	for i := range st.CracFlowFactor {
		st.CracFlowFactor[i] = 1
	}
	return st
}

// Apply folds one event into the state. Degradations compound by taking
// the worse factor (faults never self-repair). It reports whether the
// degraded *structure* changed — flows, node population, or redlines —
// which is what forces a thermal-model and LP-skeleton rebuild; a pure
// power-cap step returns false because Pconst is read per solve.
func (st *State) Apply(e Event) (structural bool) {
	switch e.Kind {
	case CRACDegrade:
		if e.Magnitude < st.CracFlowFactor[e.Unit] {
			st.CracFlowFactor[e.Unit] = e.Magnitude
			return true
		}
	case CRACOutage:
		if OutageFlowFactor < st.CracFlowFactor[e.Unit] {
			st.CracFlowFactor[e.Unit] = OutageFlowFactor
			return true
		}
	case NodeFail:
		if !st.NodeFailed[e.Unit] {
			st.NodeFailed[e.Unit] = true
			return true
		}
	case PowerCap:
		if e.Magnitude < st.CapFactor {
			st.CapFactor = e.Magnitude
		}
	case SensorOffset:
		if e.Magnitude > st.SensorBias {
			st.SensorBias = e.Magnitude
			return true
		}
	}
	return false
}

// Clone returns an independent deep copy of the state, for checkpointing
// a run without aliasing the live controller's fault bookkeeping.
func (st *State) Clone() *State {
	return &State{
		CracFlowFactor: append([]float64(nil), st.CracFlowFactor...),
		NodeFailed:     append([]bool(nil), st.NodeFailed...),
		CapFactor:      st.CapFactor,
		SensorBias:     st.SensorBias,
	}
}

// FailedNodes counts dead nodes.
func (st *State) FailedNodes() int {
	n := 0
	for _, f := range st.NodeFailed {
		if f {
			n++
		}
	}
	return n
}

// DegradedCRACs counts CRACs below full flow.
func (st *State) DegradedCRACs() int {
	n := 0
	for _, f := range st.CracFlowFactor {
		if f < 1 {
			n++
		}
	}
	return n
}

// View selects which redlines Degrade bakes into the projected model.
type View int

const (
	// Planner is the controller's view: redlines tightened by the sensor
	// bias, so plans verified against it are safe against the truth.
	Planner View = iota
	// Truth is the physical view: real redlines, used by the plant
	// telemetry and the invariant tests.
	Truth
)

// Degrade projects the base data center onto the degraded model for the
// given view. The result is a fresh DataCenter sharing only immutable
// inputs (core models, ECS rows of healthy types, Alpha rows); the base is
// never mutated. Core indexing is preserved: a failed node keeps its core
// count via a failed variant of its node type with zero base power and
// zero ECS, so P-state slices and scheduler busy state remain aligned
// across the projection.
func (st *State) Degrade(base *model.DataCenter, view View) (*model.DataCenter, error) {
	if len(st.CracFlowFactor) != base.NCRAC() || len(st.NodeFailed) != base.NCN() {
		return nil, fmt.Errorf("faults: state sized for %d CRACs/%d nodes, data center has %d/%d",
			len(st.CracFlowFactor), len(st.NodeFailed), base.NCRAC(), base.NCN())
	}
	dc := &model.DataCenter{
		NodeTypes:   append([]model.NodeType(nil), base.NodeTypes...),
		Nodes:       append([]model.Node(nil), base.Nodes...),
		CRACs:       append([]model.CRAC(nil), base.CRACs...),
		TaskTypes:   append([]model.TaskType(nil), base.TaskTypes...),
		Alpha:       base.Alpha,
		RedlineNode: base.RedlineNode,
		RedlineCRAC: base.RedlineCRAC,
		Pconst:      base.Pconst * st.CapFactor,
	}
	for i := range dc.CRACs {
		dc.CRACs[i].Flow *= st.CracFlowFactor[i]
	}
	if view == Planner {
		dc.RedlineNode -= st.SensorBias
		dc.RedlineCRAC -= st.SensorBias
		if dc.RedlineNode <= 0 || dc.RedlineCRAC <= 0 {
			return nil, fmt.Errorf("faults: sensor bias %.2f °C exceeds a redline", st.SensorBias)
		}
	}

	// ECS rows are shared until a failed variant forces an extension.
	ecs := base.ECS
	failedVariant := map[int]int{} // original type -> failed-variant type index
	for j, failed := range st.NodeFailed {
		if !failed {
			continue
		}
		orig := base.Nodes[j].Type
		variant, ok := failedVariant[orig]
		if !ok {
			nt := base.NodeTypes[orig]
			nt.Name += " (failed)"
			nt.BasePower = 0
			variant = len(dc.NodeTypes)
			dc.NodeTypes = append(dc.NodeTypes, nt)
			failedVariant[orig] = variant
			if len(ecs) > 0 && &ecs[0] == &base.ECS[0] {
				ecs = append(model.ECS(nil), base.ECS...)
			}
			for i := range ecs {
				ecs[i] = append(append([][]float64(nil), ecs[i]...),
					make([]float64, nt.NumPStates()+1))
			}
		}
		dc.Nodes[j].Type = variant
	}
	dc.ECS = ecs
	if err := dc.Validate(); err != nil {
		return nil, fmt.Errorf("faults: degraded model invalid: %w", err)
	}
	return dc, nil
}

// NodeFailTimes returns, for each node, the time of its first NodeFail
// event in the schedule (+Inf for nodes that never fail). The simulator's
// task-loss rule — a task earns no reward if its host node dies before the
// task completes — needs the full timeline up front.
func NodeFailTimes(s Schedule, nnodes int) []float64 {
	out := make([]float64, nnodes)
	for j := range out {
		out[j] = math.Inf(1)
	}
	for _, e := range s.Events {
		if e.Kind == NodeFail && e.Unit >= 0 && e.Unit < nnodes && e.Time < out[e.Unit] {
			out[e.Unit] = e.Time
		}
	}
	return out
}
