package sim

import (
	"fmt"

	"thermaldc/internal/model"
)

// EnergyReport is a post-hoc energy ledger for one simulation run. The
// paper's power model is utilization-independent (a core in P-state k
// draws π_k whether or not it is executing); §III.C sketches an extension
// where power also depends on the task type (I/O-intensive tasks draw
// less). This report implements that extension:
//
//   - while core k executes a task of type i it draws π_k · factor_i,
//     where factor_i is the task type's PowerFactor (1 when unset);
//   - while idle it draws π_k · idleFraction (1 reproduces the paper).
type EnergyReport struct {
	// BaseKJ is the node base-power energy over the horizon.
	BaseKJ float64
	// BusyKJ and IdleKJ split the core energy.
	BusyKJ, IdleKJ float64
	// ComputeKJ = BaseKJ + BusyKJ + IdleKJ.
	ComputeKJ float64
	// AvgComputeKW = ComputeKJ / horizon: directly comparable to the
	// Σ PCN_j budget the first step allocated.
	AvgComputeKW float64
}

// Energy computes the report for a finished run. idleFraction ∈ [0, 1]
// scales core power while idle; task PowerFactor fields scale it while
// executing (0 = unset = 1).
func Energy(dc *model.DataCenter, pstates []int, res *Result, idleFraction float64) (*EnergyReport, error) {
	if len(pstates) != dc.NumCores() {
		return nil, fmt.Errorf("sim: %d P-states for %d cores", len(pstates), dc.NumCores())
	}
	if idleFraction < 0 || idleFraction > 1 {
		return nil, fmt.Errorf("sim: idle fraction %g outside [0, 1]", idleFraction)
	}
	if res.Horizon <= 0 {
		return nil, fmt.Errorf("sim: result has non-positive horizon %g", res.Horizon)
	}
	rep := &EnergyReport{}
	for j := range dc.Nodes {
		rep.BaseKJ += dc.NodeType(j).BasePower * res.Horizon
	}
	lo, hi := 0, 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		powers := nt.CorePowers()
		lo, hi = hi, hi+nt.NumCores
		typ := dc.Nodes[j].Type
		for k := lo; k < hi; k++ {
			pi := powers[pstates[k]]
			if pi == 0 {
				continue // turned off
			}
			busy, weighted := 0.0, 0.0
			for i := range dc.TaskTypes {
				ecs := dc.ECS[i][typ][pstates[k]]
				atc := res.ATC(i, k)
				if ecs <= 0 || atc == 0 {
					continue
				}
				t := atc * res.Horizon / ecs // total execution time
				busy += t
				weighted += t * taskPowerFactor(&dc.TaskTypes[i])
			}
			if busy > res.Horizon {
				// Admitted tasks may queue past the horizon (deadlines can
				// be long); only energy within the horizon is accounted,
				// scaling the task-type mix proportionally.
				weighted *= res.Horizon / busy
				busy = res.Horizon
			}
			rep.BusyKJ += weighted * pi
			rep.IdleKJ += (res.Horizon - busy) * pi * idleFraction
		}
	}
	rep.ComputeKJ = rep.BaseKJ + rep.BusyKJ + rep.IdleKJ
	rep.AvgComputeKW = rep.ComputeKJ / res.Horizon
	return rep, nil
}

// taskPowerFactor returns the §III.C power factor, defaulting to 1.
func taskPowerFactor(tt *model.TaskType) float64 {
	if tt.PowerFactor <= 0 {
		return 1
	}
	return tt.PowerFactor
}
