package assign

import (
	"context"
	"fmt"
	"slices"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/telemetry"
)

// Stage3Result holds the desired execution rates found by the Stage-3 LP.
type Stage3Result struct {
	// TC[i][k] is the desired execution rate of task type i on global core
	// k (tasks per second) — the paper's TC matrix.
	TC [][]float64
	// RewardRate is the LP objective Σ_i r_i Σ_k TC(i, k): the steady-state
	// reward per second of the assignment.
	RewardRate float64
	// CoreUtilization[k] = Σ_i TC(i,k)/ECS(i, CT_k, PS_k) ∈ [0, 1].
	CoreUtilization []float64
}

// s3Key identifies a Stage-3 core group: cores of the same node type at the
// same P-state have identical ECS, so their LP columns are interchangeable.
type s3Key struct{ nodeType, pstate int }

// s3Group is one active group (non-off P-state) with its core count.
type s3Group struct {
	key   s3Key
	count int
}

// Stage3Solver solves the Equation-7 LP with P-states fixed (the remaining
// decision is the TC matrix). Because ECS depends only on (task type,
// node type, P-state), cores are grouped by that pair; the group LP is
// exactly equivalent to the per-core LP and its solution is split evenly
// across the group's cores afterwards.
//
// Constraints (paper Section V.B.1 with PS fixed):
//  1. Per core (group): Σ_i TC(i,k)/ECS ≤ 1 (×count per group).
//  2. TC(i,k) = 0 when the P-state cannot meet the deadline (variables for
//     such pairs are simply not created).
//  3. Per task: Σ_k TC(i,k) ≤ λ_i.
//
// The group LP skeleton is cached keyed by the ordered group-key
// signature, so epochs whose P-state assignment uses the same (node type,
// P-state) combinations — the common case once the controller settles —
// only patch the group-count and arrival-rate right-hand sides and
// re-solve on a retained simplex workspace. Coefficients (rewards and
// 1/ECS) depend only on the group key, never on the counts, so a patched
// solve is bit-identical to one on a freshly built LP. Grouping and
// readback index dense (node type, P-state) tables and walk the cores with
// a running offset, so all work outside the LP is linear in the cores.
//
// Not safe for concurrent use.
type Stage3Solver struct {
	dc *model.DataCenter
	ws linprog.Workspace

	// Dense (node type, P-state) tables, sized from dc.NodeTypes on first
	// use: cell cellBase[type]+pstate counts that pair's cores and holds
	// its group index (-1 for off or empty cells).
	cellBase  []int
	cellCount []int
	cellGroup []int

	// Cached skeleton, valid while the group signature matches keys.
	p        *linprog.Problem
	keys     []s3Key   // ordered signature the skeleton was built for
	groups   []s3Group // current groups (counts repatched every call)
	varID    []int     // varID[i*len(groups)+gi]: LP var of (task, group), -1 if none
	groupRow []int     // group index -> LP row (-1 when no terms)
	taskRow  []int     // task index -> LP row (-1 when no terms)
	rebuilds int

	// Readback scratch: rate[gi*T+i] is the per-core rate of task i in
	// group gi (0 without a variable), util[gi] a member core's utilization.
	rate []float64
	util []float64
}

// NewStage3Solver prepares a reusable Stage-3 solver for dc.
func NewStage3Solver(dc *model.DataCenter) *Stage3Solver {
	return &Stage3Solver{dc: dc}
}

// Rebuilds reports how many times the LP skeleton was built from scratch
// because the group signature changed (1 on first solve).
func (s *Stage3Solver) Rebuilds() int { return s.rebuilds }

// SetRecorder sends the solver's LP-solve spans to rec's tracer. A nil rec
// detaches cleanly.
func (s *Stage3Solver) SetRecorder(rec *telemetry.Recorder) {
	s.ws.Trace = rec.Tracer()
}

// TakeStats returns the accumulated simplex counters and resets them.
func (s *Stage3Solver) TakeStats() linprog.Stats {
	st := s.ws.Stats
	s.ws.Stats = linprog.Stats{}
	return st
}

// Solve is SolveContext with a background context.
func (s *Stage3Solver) Solve(pstates []int) (*Stage3Result, error) {
	return s.SolveContext(context.Background(), pstates)
}

// SolveContext solves the Stage-3 LP for the given per-core P-states,
// reusing the cached skeleton when the group signature is unchanged. A
// P-state outside [0, OffState()] is an error naming the core.
func (s *Stage3Solver) SolveContext(ctx context.Context, pstates []int) (*Stage3Result, error) {
	dc := s.dc
	if len(pstates) != dc.NumCores() {
		return nil, fmt.Errorf("assign: got %d P-states for %d cores", len(pstates), dc.NumCores())
	}
	if err := s.group(pstates); err != nil {
		return nil, err
	}

	if !s.signatureMatches() {
		s.build()
	} else {
		s.patch()
	}

	sol, err := s.p.SolveWithContext(ctx, &s.ws)
	if err != nil {
		return nil, fmt.Errorf("assign: Stage-3 LP: %w", err)
	}
	return s.disaggregate(pstates, sol), nil
}

// group counts cores per (node type, P-state) cell and lists the active
// (non-off, non-empty) cells as groups in (node type, P-state) order, the
// deterministic order LP construction uses.
func (s *Stage3Solver) group(pstates []int) error {
	dc := s.dc
	if s.cellBase == nil {
		s.cellBase = make([]int, len(dc.NodeTypes)+1)
		for nt := range dc.NodeTypes {
			s.cellBase[nt+1] = s.cellBase[nt] + dc.NodeTypes[nt].OffState() + 1
		}
		s.cellCount = make([]int, s.cellBase[len(dc.NodeTypes)])
		s.cellGroup = make([]int, len(s.cellCount))
	}
	clear(s.cellCount)
	lo := 0
	for j := range dc.Nodes {
		typ := dc.Nodes[j].Type
		nt := &dc.NodeTypes[typ]
		base, off := s.cellBase[typ], nt.OffState()
		for k := lo; k < lo+nt.NumCores; k++ {
			ps := pstates[k]
			if ps < 0 || ps > off {
				return fmt.Errorf("assign: core %d has P-state %d outside [0, %d]", k, ps, off)
			}
			s.cellCount[base+ps]++
		}
		lo += nt.NumCores
	}
	s.groups = s.groups[:0]
	for nt := range dc.NodeTypes {
		base, off := s.cellBase[nt], s.cellBase[nt+1]-1 // the off cell
		for c := base; c <= off; c++ {
			s.cellGroup[c] = -1
			if c < off && s.cellCount[c] > 0 { // off cores execute nothing
				s.cellGroup[c] = len(s.groups)
				s.groups = append(s.groups, s3Group{s3Key{nt, c - base}, s.cellCount[c]})
			}
		}
	}
	return nil
}

func (s *Stage3Solver) signatureMatches() bool {
	if s.p == nil || len(s.keys) != len(s.groups) {
		return false
	}
	for i, g := range s.groups {
		if s.keys[i] != g.key {
			return false
		}
	}
	return true
}

// build constructs the LP skeleton for the current group signature:
// variables task-major, then one row per group with terms, then one row
// per task with terms.
func (s *Stage3Solver) build() {
	dc := s.dc
	s.rebuilds++
	s.keys = s.keys[:0]
	for _, g := range s.groups {
		s.keys = append(s.keys, g.key)
	}

	p := linprog.NewProblem(linprog.Maximize)
	t, ng := dc.T(), len(s.groups)
	varID := make([]int, t*ng)
	for i := 0; i < t; i++ {
		for gi, g := range s.groups {
			varID[i*ng+gi] = -1
			if !deadlineFeasible(dc, i, g.key.nodeType, g.key.pstate) {
				continue // constraint 2
			}
			varID[i*ng+gi] = p.AddVar(fmt.Sprintf("tc_%d_%d", i, gi), 0, linprog.Inf, dc.TaskTypes[i].Reward)
		}
	}
	groupRow := make([]int, ng)
	for gi, g := range s.groups {
		groupRow[gi] = -1
		var terms []linprog.Term
		for i := 0; i < t; i++ {
			if id := varID[i*ng+gi]; id >= 0 {
				ecs := dc.ECS[i][g.key.nodeType][g.key.pstate]
				terms = append(terms, linprog.Term{Var: id, Coef: 1 / ecs})
			}
		}
		if len(terms) > 0 {
			groupRow[gi] = p.NumRows()
			p.AddRow(linprog.LE, float64(g.count), terms...)
		}
	}
	taskRow := make([]int, t)
	for i := 0; i < t; i++ {
		taskRow[i] = -1
		var terms []linprog.Term
		for _, id := range varID[i*ng : (i+1)*ng] {
			if id >= 0 {
				terms = append(terms, linprog.Term{Var: id, Coef: 1})
			}
		}
		if len(terms) > 0 {
			taskRow[i] = p.NumRows()
			p.AddRow(linprog.LE, dc.TaskTypes[i].ArrivalRate, terms...)
		}
	}
	s.p, s.varID, s.groupRow, s.taskRow = p, varID, groupRow, taskRow
}

// patch updates the only numbers that can change under an unchanged group
// signature: group core counts and task arrival rates.
func (s *Stage3Solver) patch() {
	for gi, g := range s.groups {
		if r := s.groupRow[gi]; r >= 0 {
			s.p.SetRHS(r, float64(g.count))
		}
	}
	for i, r := range s.taskRow {
		if r >= 0 {
			s.p.SetRHS(r, s.dc.TaskTypes[i].ArrivalRate)
		}
	}
}

// disaggregate splits each group's rate evenly over its member cores. A
// group's per-core rates and utilization are computed once, tasks in
// ascending order and utilization summed from 0 — the operations a
// per-core loop would run for each member — then copied to the members.
func (s *Stage3Solver) disaggregate(pstates []int, sol *linprog.Solution) *Stage3Result {
	dc := s.dc
	t, ng := dc.T(), len(s.groups)
	s.rate = slices.Grow(s.rate[:0], t*ng)[:t*ng]
	s.util = slices.Grow(s.util[:0], ng)[:ng]
	for gi, g := range s.groups {
		util := 0.0
		for i := 0; i < t; i++ {
			rate := 0.0
			if id := s.varID[i*ng+gi]; id >= 0 {
				rate = sol.Value(id) / float64(g.count)
				util += rate / dc.ECS[i][g.key.nodeType][g.key.pstate]
			}
			s.rate[gi*t+i] = rate
		}
		s.util[gi] = util
	}

	ncores := dc.NumCores()
	res := &Stage3Result{
		TC:              make([][]float64, t),
		RewardRate:      sol.Objective,
		CoreUtilization: make([]float64, ncores),
	}
	tc := make([]float64, t*ncores)
	for i := range res.TC {
		res.TC[i] = tc[i*ncores : (i+1)*ncores : (i+1)*ncores]
	}
	lo := 0
	for j := range dc.Nodes {
		typ := dc.Nodes[j].Type
		base, n := s.cellBase[typ], dc.NodeTypes[typ].NumCores
		for k := lo; k < lo+n; k++ {
			gi := s.cellGroup[base+pstates[k]]
			if gi < 0 {
				continue // off core
			}
			for i, rate := range s.rate[gi*t : (gi+1)*t] {
				res.TC[i][k] = rate
			}
			res.CoreUtilization[k] = s.util[gi]
		}
		lo += n
	}
	return res
}
