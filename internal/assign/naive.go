package assign

import (
	"context"
	"fmt"

	"thermaldc/internal/model"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// NaiveResult is the outcome of the server-level "ondemand-style"
// strawman the paper's introduction argues against: every active core runs
// at P-state 0 (utilization in an oversubscribed data center is ~100%, so
// a utilization-threshold governor never down-clocks), and an admission
// clamp simply turns cores off — evenly across nodes, with no knowledge of
// task rewards — until the power and thermal constraints hold.
type NaiveResult struct {
	// CracOut is the best outlet vector found for the final core count.
	CracOut []float64
	// ActiveCores is the largest feasible number of P-state-0 cores.
	ActiveCores int
	// PStates is the resulting flat assignment (P0 or off).
	PStates []int
	// Stage3 holds the optimal desired rates for that assignment, so the
	// comparison against Equation 21 and the three-stage technique
	// isolates the P-state decision, not the rate assignment.
	Stage3 *Stage3Result
	// TotalPower is the exact power at the solution.
	TotalPower float64
}

// NaiveOndemand computes the strawman assignment: binary-search the
// largest number of active P-state-0 cores (spread round-robin across
// nodes) whose exact power and redlines are feasible for some CRAC outlet
// assignment, then solve the Stage-3 rate LP for it.
func NaiveOndemand(dc *model.DataCenter, tm *thermal.Model, search tempsearch.Config) (*NaiveResult, error) {
	ncores := dc.NumCores()

	feasible := func(k int) ([]float64, float64, bool) {
		pcn := nodePowersForActiveCores(dc, k)
		eval := func(cracOut []float64) (float64, bool) {
			tin := tm.InletTemps(cracOut, pcn)
			if tm.RedlineSlack(tin) < -powerTolerance {
				return 0, false
			}
			return -tm.TotalPower(cracOut, pcn), true
		}
		res, err := tempsearch.CoarseToFine(context.Background(), dc.NCRAC(), search, tempsearch.Shared(eval))
		if err != nil {
			return nil, 0, false
		}
		power := -res.Value
		return res.Out, power, power <= dc.Pconst+powerTolerance
	}

	if _, _, ok := feasible(0); !ok {
		return nil, fmt.Errorf("assign: even the all-off data center violates the constraints")
	}
	lo, hi := 0, ncores // invariant: lo feasible, hi+1 infeasible or hi = max
	for lo < hi {
		mid := (lo + hi + 1) / 2
		if _, _, ok := feasible(mid); ok {
			lo = mid
		} else {
			hi = mid - 1
		}
	}
	out, power, _ := feasible(lo)
	pstates := pstatesForActiveCores(dc, lo)
	s3, err := NewStage3Solver(dc).Solve(context.Background(), pstates)
	if err != nil {
		return nil, err
	}
	return &NaiveResult{
		CracOut:     out,
		ActiveCores: lo,
		PStates:     pstates,
		Stage3:      s3,
		TotalPower:  power,
	}, nil
}

// activeCoreCounts spreads k active cores round-robin across nodes.
func activeCoreCounts(dc *model.DataCenter, k int) []int {
	counts := make([]int, dc.NCN())
	for k > 0 {
		progressed := false
		for j := range counts {
			if k == 0 {
				break
			}
			if counts[j] < dc.NodeType(j).NumCores {
				counts[j]++
				k--
				progressed = true
			}
		}
		if !progressed {
			break
		}
	}
	return counts
}

func nodePowersForActiveCores(dc *model.DataCenter, k int) []float64 {
	counts := activeCoreCounts(dc, k)
	pcn := make([]float64, dc.NCN())
	for j := range pcn {
		nt := dc.NodeType(j)
		pcn[j] = nt.BasePower + float64(counts[j])*nt.Core.PStatePower(0)
	}
	return pcn
}

func pstatesForActiveCores(dc *model.DataCenter, k int) []int {
	counts := activeCoreCounts(dc, k)
	out := make([]int, dc.NumCores())
	lo, hi := 0, 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		lo, hi = hi, hi+nt.NumCores
		for c := lo; c < hi; c++ {
			if c-lo < counts[j] {
				out[c] = 0
			} else {
				out[c] = nt.OffState()
			}
		}
	}
	return out
}
