package assign

import (
	"context"
	"fmt"
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/telemetry"
)

// Stage3Result holds the desired execution rates found by the Stage-3 LP:
// the paper's TC matrix. A result holds it in one of two forms. The solver
// returns it by core group (cores of one node type at one P-state, which
// have identical ECS and so identical rates): CoreGroup maps each core to
// its group and GroupRate holds one row of per-core rates per group. A
// plan built elsewhere (a Baseline assignment) can hold the dense TC
// instead. Rate, Dense and Verify read whichever form is set (Util needs
// the groups); when both are set (the controller stores Dense as TC on the
// plans it adopts) they agree.
type Stage3Result struct {
	// TC[i][k] is the desired execution rate of task type i on global core
	// k (tasks per second), or nil when the result holds only groups.
	TC [][]float64
	// RewardRate is the LP objective Σ_i r_i Σ_k TC(i, k): the steady-state
	// reward per second of the assignment.
	RewardRate float64

	// Tasks is the number of task types T, the stride of GroupRate.
	Tasks int
	// CoreGroup[k] is core k's group, −1 for a core that executes nothing
	// (an off core). Nil when the result holds only TC.
	CoreGroup []int32
	// GroupRate[g*Tasks+i] is the rate of task type i on each core of
	// group g.
	GroupRate []float64
	// GroupUtil[g] = Σ_i GroupRate[g*Tasks+i]/ECS(i, type, P-state) ∈ [0, 1]
	// is the utilization of each core of group g.
	GroupUtil []float64
}

// grouped reports whether the result holds its plan by group.
func (r *Stage3Result) grouped() bool { return r.CoreGroup != nil }

// Rate returns TC(i, k), the desired rate of task type i on core k.
func (r *Stage3Result) Rate(i, k int) float64 {
	if !r.grouped() {
		return r.TC[i][k]
	}
	g := r.CoreGroup[k]
	if g < 0 {
		return 0
	}
	return r.GroupRate[int(g)*r.Tasks+i]
}

// Util returns core k's utilization Σ_i TC(i,k)/ECS(i, CT_k, PS_k). Only
// the grouped form carries utilizations; a result holding TC alone
// reports NaN.
func (r *Stage3Result) Util(k int) float64 {
	if !r.grouped() {
		return math.NaN()
	}
	g := r.CoreGroup[k]
	if g < 0 {
		return 0
	}
	return r.GroupUtil[g]
}

// Dense returns the plan as the T × cores TC matrix the second-step
// scheduler and simulator take. It returns TC itself when set; otherwise
// it builds a new matrix, each member core receiving its group's rates.
// It is the only place a grouped plan becomes per-core.
func (r *Stage3Result) Dense() [][]float64 {
	if r.TC != nil {
		return r.TC
	}
	t, ncores := r.Tasks, len(r.CoreGroup)
	flat := make([]float64, t*ncores)
	tc := make([][]float64, t)
	for i := range tc {
		tc[i] = flat[i*ncores : (i+1)*ncores : (i+1)*ncores]
	}
	for k, g := range r.CoreGroup {
		if g < 0 {
			continue
		}
		for i, rate := range r.GroupRate[int(g)*t : (int(g)+1)*t] {
			tc[i][k] = rate
		}
	}
	return tc
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
// exactly equivalent to the per-core LP, and its solution is returned by
// group: each core of a group takes an even share of the group's rate.
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

// Solve solves the Stage-3 LP for the given per-core P-states,
// reusing the cached skeleton when the group signature is unchanged. A
// P-state outside [0, OffState()] is an error naming the core.
func (s *Stage3Solver) Solve(ctx context.Context, pstates []int) (*Stage3Result, error) {
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

	sol, err := s.p.Solve(ctx, &s.ws)
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

// disaggregate reads the plan back by group: each group's per-core rates
// (its LP value over its core count, tasks in ascending order) and a
// member core's utilization (summed from 0 over ascending tasks) — the
// operations a per-core loop would run for each member — plus each core's
// group index.
func (s *Stage3Solver) disaggregate(pstates []int, sol *linprog.Solution) *Stage3Result {
	dc := s.dc
	t, ng := dc.T(), len(s.groups)
	res := &Stage3Result{
		RewardRate: sol.Objective,
		Tasks:      t,
		CoreGroup:  make([]int32, dc.NumCores()),
		GroupRate:  make([]float64, t*ng),
		GroupUtil:  make([]float64, ng),
	}
	for gi, g := range s.groups {
		util := 0.0
		for i := 0; i < t; i++ {
			rate := 0.0
			if id := s.varID[i*ng+gi]; id >= 0 {
				rate = sol.Value(id) / float64(g.count)
				util += rate / dc.ECS[i][g.key.nodeType][g.key.pstate]
			}
			res.GroupRate[gi*t+i] = rate
		}
		res.GroupUtil[gi] = util
	}
	lo := 0
	for j := range dc.Nodes {
		typ := dc.Nodes[j].Type
		base, n := s.cellBase[typ], dc.NodeTypes[typ].NumCores
		for k := lo; k < lo+n; k++ {
			res.CoreGroup[k] = int32(s.cellGroup[base+pstates[k]])
		}
		lo += n
	}
	return res
}
