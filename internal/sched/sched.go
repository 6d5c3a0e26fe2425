// Package sched implements the paper's second-step assignment (Section
// V.C): a dynamic scheduler that maps each arriving task to the core whose
// actual-to-desired execution-rate ratio ATC(i,k)/TC(i,k) is smallest,
// among cores that can still complete the task by its deadline, and drops
// tasks no core can serve. Keeping every ratio near 1 makes the realized
// execution rates track the Stage-3 desired rates.
//
// The scheduler holds its plan by core group: cores of one group share
// the execution time and the desired rate TC of every task type (Stage 3
// splits each (node type, P-state) group's rate evenly over its cores), so
// both are kept per (task, group). Only the ATC counts are per core.
package sched

import (
	"fmt"
	"math"

	"thermaldc/internal/model"
	"thermaldc/internal/workload"
)

// Scheduler is the second-step policy plus its ATC bookkeeping.
type Scheduler struct {
	tasks, ncores int
	// group[k] is core k's group, -1 for a core that runs no task type.
	group []int32
	// exec[g*tasks+i] is 1/ECS of task type i on group g's cores (+Inf
	// when they cannot run it) and rate[g*tasks+i] its TC.
	exec, rate []float64
	// counts[i*ncores+k] is the number of type-i tasks assigned to core k.
	counts []int32
	// runs[runStart[i]:runStart[i+1]] lists, in ascending core order, the
	// runs of consecutive cores of one group that can run type i, so the
	// per-arrival scan skips turned-off and incapable cores (often half
	// the fleet in an oversubscribed data center).
	runs     []coreRun
	runStart []int32
	// most is the largest number of cores any task type can run on: the
	// capacity of the candidate buffer.
	most int
	// startTime anchors the ATC rate clock (elapsed = now − startTime);
	// zero for a fresh simulation, the epoch start when reassigning.
	startTime float64
	// cands is the per-arrival candidate buffer ScheduleWith reuses,
	// allocated by the first scan; it holds no state between arrivals
	// (see Policy.Pick).
	cands []Candidate
	// ix is PaperPolicy's dispatch index, derived lazily on the first
	// call that can use it (nil until then); see dispatchIndex.
	ix *dispatchIndex
}

// coreRun is the cores [lo, hi) of group g.
type coreRun struct{ lo, hi, g int32 }

// New builds a scheduler for a first-step plan held by core group: per-core
// P-states, coreGroup[k] the group of core k (−1 for a core that executes
// nothing) and groupRate[g*tasks+i] the desired rate TC of task type i on
// each core of group g. This is Stage 3's CoreGroup/Tasks/GroupRate. The
// scheduler keeps coreGroup and groupRate; the caller must not change
// them. Each group's execution times are read from dc.ECS at a member
// core's node type and P-state. New rejects a plan with a group that has
// no core or whose cores differ in execution time, or with a −1 core that
// could run a task; a plan held as a dense TC goes through NewDense.
func New(dc *model.DataCenter, pstates []int, coreGroup []int32, tasks int, groupRate []float64) (*Scheduler, error) {
	ncores := dc.NumCores()
	switch {
	case len(pstates) != ncores:
		return nil, fmt.Errorf("sched: %d P-states for %d cores", len(pstates), ncores)
	case len(coreGroup) != ncores:
		return nil, fmt.Errorf("sched: %d core groups for %d cores", len(coreGroup), ncores)
	case tasks != dc.T():
		return nil, fmt.Errorf("sched: plan has %d task types, want %d", tasks, dc.T())
	case tasks == 0 && len(groupRate) > 0, tasks > 0 && len(groupRate)%tasks != 0:
		return nil, fmt.Errorf("sched: %d group rates for %d task types", len(groupRate), tasks)
	}
	ng := 0
	if tasks > 0 {
		ng = len(groupRate) / tasks
	}
	s := &Scheduler{
		tasks:  tasks,
		ncores: ncores,
		group:  coreGroup,
		exec:   make([]float64, len(groupRate)),
		rate:   groupRate,
		counts: make([]int32, tasks*ncores),
	}
	// seen[g] is the node type and P-state of group g's first core, {-1,
	// -1} before one is seen.
	seen := make([][2]int, ng)
	for g := range seen {
		seen[g] = [2]int{-1, -1}
	}
	k := 0
	ecs := dc.ECS
	for _, node := range dc.Nodes {
		nt := &dc.NodeTypes[node.Type]
		for hi := k + nt.NumCores; k < hi; k++ {
			ps, g := pstates[k], coreGroup[k]
			if ps < 0 || ps > nt.OffState() {
				return nil, fmt.Errorf("sched: core %d has P-state %d outside [0, %d]", k, ps, nt.OffState())
			}
			switch {
			case g < -1 || int(g) >= ng:
				return nil, fmt.Errorf("sched: core %d is in group %d of %d", k, g, ng)
			case g < 0:
				for i := range tasks {
					if !math.IsInf(execTime(ecs[i][node.Type][ps]), 1) {
						return nil, fmt.Errorf("sched: core %d is in no group but can run task type %d", k, i)
					}
				}
			case seen[g][0] < 0:
				seen[g] = [2]int{node.Type, ps}
				for i := range tasks {
					s.exec[int(g)*tasks+i] = execTime(ecs[i][node.Type][ps])
				}
			case seen[g] != [2]int{node.Type, ps}:
				for i, e := range s.exec[int(g)*tasks : (int(g)+1)*tasks] {
					if math.Float64bits(e) != math.Float64bits(execTime(ecs[i][node.Type][ps])) {
						return nil, fmt.Errorf("sched: core %d differs from the rest of group %d in the execution time of task type %d", k, g, i)
					}
				}
			}
		}
	}
	for g, sn := range seen {
		if sn[0] < 0 {
			return nil, fmt.Errorf("sched: group %d has no core", g)
		}
	}
	s.indexRuns()
	return s, nil
}

// execTime is the execution time at speed ecs: +Inf when the core cannot
// run the task.
func execTime(ecs float64) float64 {
	if ecs <= 0 {
		return math.Inf(1)
	}
	return 1 / ecs
}

// indexRuns lists, for every task type, the runs of consecutive cores of
// one group that can run it.
func (s *Scheduler) indexRuns() {
	eachRun := func(visit func(r coreRun)) {
		for lo := 0; lo < s.ncores; {
			g, hi := s.group[lo], lo+1
			for hi < s.ncores && s.group[hi] == g {
				hi++
			}
			if g >= 0 {
				visit(coreRun{int32(lo), int32(hi), g})
			}
			lo = hi
		}
	}
	s.runStart = make([]int32, s.tasks+1)
	cores := make([]int, s.tasks)
	eachRun(func(r coreRun) {
		for i := range s.tasks {
			if s.runnable(i, r.g) {
				s.runStart[i+1]++
				cores[i] += int(r.hi - r.lo)
			}
		}
	})
	for i := range s.tasks {
		s.runStart[i+1] += s.runStart[i]
		s.most = max(s.most, cores[i])
	}
	s.runs = make([]coreRun, s.runStart[s.tasks])
	next := append([]int32(nil), s.runStart[:s.tasks]...)
	eachRun(func(r coreRun) {
		for i := range s.tasks {
			if s.runnable(i, r.g) {
				s.runs[next[i]] = r
				next[i]++
			}
		}
	})
}

// runnable reports whether group g's cores can run task type i.
func (s *Scheduler) runnable(i int, g int32) bool {
	return !math.IsInf(s.exec[int(g)*s.tasks+i], 1)
}

// Group is the grouping function for a plan held as a dense T × cores TC
// matrix: cores whose execution-time and TC columns are bit-identical
// across every task type form one group (Stage 3 splits each (node type,
// P-state) group's rate evenly; a Baseline plan's TC is per node, so each
// node's running cores form one group there). A core that can run no task
// type and holds TC = 0 for every one gets group −1. It returns the plan in
// New's form, whose Rate(i, k) is tc[i][k] for every core.
func Group(dc *model.DataCenter, pstates []int, tc [][]float64) (coreGroup []int32, groupRate []float64, err error) {
	ncores, t := dc.NumCores(), dc.T()
	if len(pstates) != ncores {
		return nil, nil, fmt.Errorf("sched: %d P-states for %d cores", len(pstates), ncores)
	}
	if len(tc) != t {
		return nil, nil, fmt.Errorf("sched: TC has %d task rows, want %d", len(tc), t)
	}
	for i := range tc {
		if len(tc[i]) != ncores {
			return nil, nil, fmt.Errorf("sched: TC[%d] has %d cores, want %d", i, len(tc[i]), ncores)
		}
	}
	coreGroup = make([]int32, ncores)
	ids := make(map[string]int32)
	key := make([]byte, 0, 16*t)
	k := 0
	for _, node := range dc.Nodes {
		nt := &dc.NodeTypes[node.Type]
		for hi := k + nt.NumCores; k < hi; k++ {
			ps := pstates[k]
			if ps < 0 || ps > nt.OffState() {
				return nil, nil, fmt.Errorf("sched: core %d has P-state %d outside [0, %d]", k, ps, nt.OffState())
			}
			key = key[:0]
			idle := true
			for i := range tc {
				e := execTime(dc.ECS[i][node.Type][ps])
				idle = idle && math.IsInf(e, 1) && tc[i][k] == 0
				key = appendBits(appendBits(key, e), tc[i][k])
			}
			if idle {
				coreGroup[k] = -1
				continue
			}
			g, ok := ids[string(key)]
			if !ok {
				g = int32(len(ids))
				ids[string(key)] = g
				for i := range tc {
					groupRate = append(groupRate, tc[i][k])
				}
			}
			coreGroup[k] = g
		}
	}
	return coreGroup, groupRate, nil
}

func appendBits(b []byte, v float64) []byte {
	u := math.Float64bits(v)
	for s := 0; s < 64; s += 8 {
		b = append(b, byte(u>>s))
	}
	return b
}

// NewDense builds a scheduler for a plan held as per-core P-states and the
// dense Stage-3 desired-rate matrix TC[i][k], grouped by Group.
func NewDense(dc *model.DataCenter, pstates []int, tc [][]float64) (*Scheduler, error) {
	coreGroup, groupRate, err := Group(dc, pstates, tc)
	if err != nil {
		return nil, err
	}
	return New(dc, pstates, coreGroup, dc.T(), groupRate)
}

// SetStartTime anchors the ATC clock at t: rates are computed over
// now − t. Used by epoch-reassignment runs whose schedulers start mid-
// simulation.
func (s *Scheduler) SetStartTime(t float64) { s.startTime = t }

// StartTime returns the ATC clock anchor set by SetStartTime.
func (s *Scheduler) StartTime() float64 { return s.startTime }

// Counts returns a copy of the ATC assignment counts (tasks of type i
// assigned to core k so far). Together with StartTime it is the
// scheduler's complete mutable state, letting a checkpointed run rebuild
// an identically behaving scheduler with RestoreCounts. The candidate
// buffer ScheduleWith reuses is scratch, not state: nothing in it
// outlives an arrival. The dispatch index is derived from the plan, the
// counts and freeAt, and is rebuilt on demand.
func (s *Scheduler) Counts() [][]int {
	out := make([][]int, s.tasks)
	for i := range out {
		out[i] = make([]int, s.ncores)
		for k, c := range s.counts[i*s.ncores : (i+1)*s.ncores] {
			out[i][k] = int(c)
		}
	}
	return out
}

// RestoreCounts overwrites the ATC counts with a snapshot taken by Counts
// on an identically shaped scheduler (same task types, same core count).
// It drops the dispatch index, which the next call rebuilds.
func (s *Scheduler) RestoreCounts(counts [][]int) error {
	if len(counts) != s.tasks {
		return fmt.Errorf("sched: restoring %d task-type count rows, scheduler has %d", len(counts), s.tasks)
	}
	for i := range counts {
		if len(counts[i]) != s.ncores {
			return fmt.Errorf("sched: count row %d has %d cores, scheduler has %d", i, len(counts[i]), s.ncores)
		}
		for k, c := range counts[i] {
			if c < 0 || c > math.MaxInt32 {
				return fmt.Errorf("sched: count of task type %d on core %d is %d, outside [0, %d]", i, k, c, math.MaxInt32)
			}
		}
	}
	for i := range counts {
		for k, c := range counts[i] {
			s.counts[i*s.ncores+k] = int32(c)
		}
	}
	s.ix = nil
	return nil
}

// ExecTime returns the execution time of task type i on core k (possibly
// +Inf).
func (s *Scheduler) ExecTime(task, core int) float64 {
	g := s.group[core]
	if g < 0 {
		return math.Inf(1)
	}
	return s.exec[int(g)*s.tasks+task]
}

// Rate returns TC(i,k), the desired rate of task type i on core k.
func (s *Scheduler) Rate(task, core int) float64 {
	g := s.group[core]
	if g < 0 {
		return 0
	}
	return s.rate[int(g)*s.tasks+task]
}

// Ratio returns ATC(i,k)/TC(i,k) at time now; cores with TC = 0 report
// +Inf so they are never selected.
func (s *Scheduler) Ratio(task, core int, now float64) float64 {
	tc := s.Rate(task, core)
	if tc <= 0 {
		return math.Inf(1)
	}
	elapsed := now - s.startTime
	if elapsed <= 0 {
		return 0
	}
	return float64(s.counts[task*s.ncores+core]) / elapsed / tc
}

// Schedule picks a core for the task with the paper's min-ratio rule, or
// reports a drop. On success the internal ATC counts are updated; the
// caller must then occupy the core until completion. Equivalent to
// ScheduleWith(PaperPolicy{}, ...).
func (s *Scheduler) Schedule(task workload.Task, now float64, freeAt []float64) (core int, completion float64, ok bool) {
	return s.ScheduleWith(PaperPolicy{}, task, now, freeAt)
}

// LiveCounts returns the ATC assignment counts without copying them:
// tasks of type i assigned to core k so far at index i·cores + k. The slice
// aliases the scheduler, changes as it schedules, and must not be written.
func (s *Scheduler) LiveCounts() []int32 { return s.counts }
