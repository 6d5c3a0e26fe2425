package assign

import (
	"context"
	"fmt"
	"sort"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/telemetry"
)

// s3Key identifies a Stage-3 core group: cores of the same node type at the
// same P-state have identical ECS, so their LP columns are interchangeable.
type s3Key struct{ nodeType, pstate int }

// s3Group is one active group (non-off P-state) with its core count.
type s3Group struct {
	key   s3Key
	count int
}

// Stage3Solver is the warm-start form of Stage3: the group LP skeleton is
// cached keyed by the ordered group-key signature, so epochs whose P-state
// assignment uses the same (node type, P-state) combinations — the common
// case once the controller settles — only patch the group-count and
// arrival-rate right-hand sides and re-solve on a retained simplex
// workspace. Solutions are bit-identical to Stage3Context: coefficients
// (rewards and 1/ECS) depend only on the group key, never on the counts.
//
// Not safe for concurrent use.
type Stage3Solver struct {
	dc *model.DataCenter
	ws linprog.Workspace

	// Cached skeleton, valid while the group signature matches keys.
	p        *linprog.Problem
	keys     []s3Key        // ordered signature the skeleton was built for
	groups   []s3Group      // current groups (counts repatched every call)
	varID    map[[2]int]int // (task, group index) -> LP var
	groupRow []int          // group index -> LP row (-1 when no terms)
	taskRow  []int          // task index -> LP row (-1 when no terms)
	rebuilds int

	// Telemetry handles; zero values are no-ops (see Stage1Solver).
	mSolves   telemetry.Counter
	mRebuilds telemetry.Counter

	countMap map[s3Key]int // per-call scratch
}

// NewStage3Solver prepares a reusable Stage-3 solver for dc.
func NewStage3Solver(dc *model.DataCenter) *Stage3Solver {
	return &Stage3Solver{dc: dc, countMap: make(map[s3Key]int)}
}

// Rebuilds reports how many times the LP skeleton was built from scratch
// because the group signature changed (1 on first solve).
func (s *Stage3Solver) Rebuilds() int { return s.rebuilds }

// SetRecorder wires the solver to rec: LP-solve spans go to rec's tracer
// and per-solve/skeleton-rebuild counters to its metrics registry. A nil
// rec detaches cleanly.
func (s *Stage3Solver) SetRecorder(rec *telemetry.Recorder) {
	s.ws.Trace = rec.Tracer()
	reg := rec.Registry()
	s.mSolves = reg.Counter("tapo_stage3_solves_total", "Stage-3 group-LP solves")
	s.mRebuilds = reg.Counter("tapo_stage3_rebuilds_total",
		"Stage-3 LP skeleton rebuilds (group signature changed)")
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
// reusing the cached skeleton when the group signature is unchanged.
func (s *Stage3Solver) SolveContext(ctx context.Context, pstates []int) (*Stage3Result, error) {
	dc := s.dc
	if len(pstates) != dc.NumCores() {
		return nil, fmt.Errorf("assign: got %d P-states for %d cores", len(pstates), dc.NumCores())
	}
	s.mSolves.Inc()

	// Group cores by (node type, P-state), dropping off-state groups.
	clear(s.countMap)
	for j := range dc.Nodes {
		lo, hi := dc.CoreRange(j)
		for k := lo; k < hi; k++ {
			s.countMap[s3Key{dc.Nodes[j].Type, pstates[k]}]++
		}
	}
	s.groups = s.groups[:0]
	for k, c := range s.countMap {
		if k.pstate >= dc.NodeTypes[k.nodeType].OffState() {
			continue // off cores execute nothing
		}
		s.groups = append(s.groups, s3Group{k, c})
	}
	// Deterministic order for reproducible LP construction.
	sort.Slice(s.groups, func(a, b int) bool {
		if s.groups[a].key.nodeType != s.groups[b].key.nodeType {
			return s.groups[a].key.nodeType < s.groups[b].key.nodeType
		}
		return s.groups[a].key.pstate < s.groups[b].key.pstate
	})

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

// build constructs the LP skeleton for the current group signature. The
// construction order mirrors Stage3Context exactly so a fresh build solved
// on the retained workspace reproduces its solution bit-for-bit.
func (s *Stage3Solver) build() {
	dc := s.dc
	s.rebuilds++
	s.mRebuilds.Inc()
	s.keys = s.keys[:0]
	for _, g := range s.groups {
		s.keys = append(s.keys, g.key)
	}

	p := linprog.NewProblem(linprog.Maximize)
	t := dc.T()
	varID := make(map[[2]int]int)
	for i := 0; i < t; i++ {
		for gi, g := range s.groups {
			if !deadlineFeasible(dc, i, g.key.nodeType, g.key.pstate) {
				continue // constraint 2
			}
			id := p.AddVar(fmt.Sprintf("tc_%d_%d", i, gi), 0, linprog.Inf, dc.TaskTypes[i].Reward)
			varID[[2]int{i, gi}] = id
		}
	}
	groupRow := make([]int, len(s.groups))
	for gi, g := range s.groups {
		groupRow[gi] = -1
		var terms []linprog.Term
		for i := 0; i < t; i++ {
			if id, ok := varID[[2]int{i, gi}]; ok {
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
		for gi := range s.groups {
			if id, ok := varID[[2]int{i, gi}]; ok {
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

// disaggregate splits each group's rate evenly over its member cores,
// mirroring Stage3Context.
func (s *Stage3Solver) disaggregate(pstates []int, sol *linprog.Solution) *Stage3Result {
	dc := s.dc
	t := dc.T()
	ncores := dc.NumCores()
	res := &Stage3Result{
		TC:              make([][]float64, t),
		RewardRate:      sol.Objective,
		CoreUtilization: make([]float64, ncores),
	}
	for i := range res.TC {
		res.TC[i] = make([]float64, ncores)
	}
	groupIdx := make(map[s3Key]int, len(s.groups))
	for gi, g := range s.groups {
		groupIdx[g.key] = gi
	}
	for j := range dc.Nodes {
		lo, hi := dc.CoreRange(j)
		for k := lo; k < hi; k++ {
			key := s3Key{dc.Nodes[j].Type, pstates[k]}
			gi, ok := groupIdx[key]
			if !ok {
				continue // off core
			}
			g := s.groups[gi]
			for i := 0; i < t; i++ {
				id, ok := s.varID[[2]int{i, gi}]
				if !ok {
					continue
				}
				rate := sol.Value(id) / float64(g.count)
				res.TC[i][k] = rate
				res.CoreUtilization[k] += rate / dc.ECS[i][key.nodeType][key.pstate]
			}
		}
	}
	return res
}
