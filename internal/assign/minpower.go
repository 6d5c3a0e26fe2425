package assign

import (
	"context"
	"fmt"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// MinPowerResult is the outcome of the dual problem the paper lists as its
// first future-work item (§VIII): minimize total power subject to a
// reward-rate floor.
type MinPowerResult struct {
	// CracOut is the best outlet-temperature vector found.
	CracOut []float64
	// RewardFloor echoes the requested floor.
	RewardFloor float64
	// NodeCorePower / NodePower describe the relaxed (continuous)
	// solution; RelaxedPower is its exact total power.
	NodeCorePower []float64
	NodePower     []float64
	RelaxedPower  float64
	// PStates, Stage3 and IntegerPower describe the integer solution
	// after Stage-2 rounding. Because rounding only lowers node power,
	// Stage3.RewardRate may fall slightly below the floor; RewardGap =
	// RewardFloor − Stage3.RewardRate (≤ 0 means the floor is met).
	PStates      []int
	Stage3       *Stage3Result
	IntegerPower float64
	RewardGap    float64
	// SearchEvals counts the outlet candidates the temperature search
	// visited. Its evaluator has no bound, so it solves the LP of each.
	SearchEvals int
}

// minPowerFixed solves: minimize total power (compute + linearized CRAC)
// subject to aggregate reward rate ≥ floor and the redlines, at fixed
// CRAC outlet temperatures. It reuses the Stage-1 segment encoding with
// objective and reward swapped between objective and constraint.
func minPowerFixed(dc *model.DataCenter, tm *thermal.Model, arrs []*pwl.Func, cracOut []float64, floor float64) (*Stage1Result, error) {
	ncn := dc.NCN()
	p := linprog.NewProblem(linprog.Minimize)

	basePow := make([]float64, ncn)
	for j := range basePow {
		basePow[j] = dc.NodeType(j).BasePower
	}
	// The objective is the Stage-1 power row without its constant term.
	nodeCoef := make([]float64, ncn)
	linearPowerRow(basePow, tm.LinearizeCRACPower(cracOut), nodeCoef)

	type segVar struct {
		node int
		id   int
	}
	var segVars []segVar
	var rewardTerms []linprog.Term
	for j := 0; j < ncn; j++ {
		nt := dc.NodeType(j)
		scaled := arrs[dc.Nodes[j].Type].Scale(float64(nt.NumCores))
		for s, seg := range scaled.Segments() {
			id := p.AddVar(fmt.Sprintf("seg_%d_%d", j, s), 0, seg.Length, nodeCoef[j])
			segVars = append(segVars, segVar{j, id})
			rewardTerms = append(rewardTerms, linprog.Term{Var: id, Coef: seg.Slope})
		}
	}
	// Reward floor.
	p.AddRow(linprog.GE, floor, rewardTerms...)
	// Redlines.
	base := tm.InletBase(cracOut)
	g := tm.PowerSensitivity()
	redline := dc.Redline()
	for t := 0; t < dc.NumThermal(); t++ {
		rhs := redline[t] - base[t]
		var terms []linprog.Term
		for _, sv := range segVars {
			if gj := g.At(t, sv.node); gj != 0 {
				terms = append(terms, linprog.Term{Var: sv.id, Coef: gj})
			}
		}
		for j := 0; j < ncn; j++ {
			rhs -= g.At(t, j) * dc.NodeType(j).BasePower
		}
		if rhs < 0 {
			return nil, fmt.Errorf("assign: redline %d violated by base power alone at outlets %v", t, cracOut)
		}
		p.AddRow(linprog.LE, rhs, terms...)
	}

	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		return nil, err
	}
	res := &Stage1Result{
		CracOut:       append([]float64(nil), cracOut...),
		NodeCorePower: make([]float64, ncn),
		NodePower:     make([]float64, ncn),
	}
	reward := 0.0
	for i, sv := range segVars {
		v := sol.Value(sv.id)
		res.NodeCorePower[sv.node] += v
		reward += rewardTerms[i].Coef * v
	}
	res.PredictedARR = reward
	for j := 0; j < ncn; j++ {
		res.NodePower[j] = dc.NodeType(j).BasePower + res.NodeCorePower[j]
		res.ComputePower += res.NodePower[j]
	}
	for _, cp := range tm.CRACPowers(cracOut, res.NodePower) {
		res.CRACPower += cp
	}
	res.TotalPower = res.ComputePower + res.CRACPower
	tin := tm.InletTemps(cracOut, res.NodePower)
	res.Feasible = tm.RedlineSlack(tin) >= -powerTolerance && reward >= floor-1e-6
	return res, nil
}

// MinPowerForReward minimizes the data center's total power subject to a
// steady-state reward-rate floor — the paper's §VIII future-work problem.
// The CRAC outlet temperatures are searched with the same discretized
// strategy as the primal problem; the relaxed solution is then converted
// to integer P-states (Stage 2) and the achieved reward evaluated with the
// Stage-3 LP.
func MinPowerForReward(dc *model.DataCenter, tm *thermal.Model, rewardFloor float64, opts Options) (*MinPowerResult, error) {
	if rewardFloor <= 0 {
		return nil, fmt.Errorf("assign: reward floor must be positive, got %g", rewardFloor)
	}
	arrs, err := nodeARRs(dc, opts.Psi)
	if err != nil {
		return nil, err
	}
	// minPowerFixed builds a fresh LP per call over the read-only
	// envelopes, so one shared evaluator serves all search workers.
	eval := func(cracOut []float64) (float64, bool) {
		res, err := minPowerFixed(dc, tm, arrs, cracOut, rewardFloor)
		if err != nil || !res.Feasible {
			return 0, false
		}
		return -res.TotalPower, true
	}
	best, err := runSearch(context.Background(), dc.NCRAC(), opts, tempsearch.Shared(eval))
	if err != nil {
		return nil, fmt.Errorf("assign: no outlet assignment can reach reward %g within the redlines: %w", rewardFloor, err)
	}
	s1, err := minPowerFixed(dc, tm, arrs, best.Out, rewardFloor)
	if err != nil {
		return nil, err
	}
	pstates, err := Stage2(dc, arrs, s1)
	if err != nil {
		return nil, err
	}
	s3, err := NewStage3Solver(dc).Solve(context.Background(), pstates)
	if err != nil {
		return nil, err
	}
	pcn := NodePowersFromPStates(dc, pstates)
	return &MinPowerResult{
		CracOut:       s1.CracOut,
		RewardFloor:   rewardFloor,
		NodeCorePower: s1.NodeCorePower,
		NodePower:     s1.NodePower,
		RelaxedPower:  s1.TotalPower,
		PStates:       pstates,
		Stage3:        s3,
		IntegerPower:  tm.TotalPower(s1.CracOut, pcn),
		RewardGap:     rewardFloor - s3.RewardRate,
		SearchEvals:   best.Evals,
	}, nil
}
