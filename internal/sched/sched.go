// Package sched implements the paper's second-step assignment (Section
// V.C): a dynamic scheduler that maps each arriving task to the core whose
// actual-to-desired execution-rate ratio ATC(i,k)/TC(i,k) is smallest,
// among cores that can still complete the task by its deadline, and drops
// tasks no core can serve. Keeping every ratio near 1 makes the realized
// execution rates track the Stage-3 desired rates.
package sched

import (
	"fmt"
	"math"

	"thermaldc/internal/model"
	"thermaldc/internal/workload"
)

// Scheduler is the second-step policy plus its ATC bookkeeping.
type Scheduler struct {
	dc      *model.DataCenter
	pstates []int
	tc      [][]float64
	// counts[i][k] is the number of type-i tasks assigned to core k.
	counts [][]int
	// execTime[i][k] caches 1/ECS for the core's P-state (+Inf when the
	// core cannot run the type).
	execTime [][]float64
	// eligible[i] lists the cores with finite execTime for type i, so the
	// per-arrival scan skips turned-off and incapable cores (often half
	// the fleet in an oversubscribed data center).
	eligible [][]int
	// startTime anchors the ATC rate clock (elapsed = now − startTime);
	// zero for a fresh simulation, the epoch start when reassigning.
	startTime float64
	// cands is the per-arrival candidate buffer ScheduleWith reuses; it
	// holds no state between arrivals (see Policy.Pick).
	cands []Candidate
	// ix is PaperPolicy's dispatch index, derived lazily on the first
	// call that can use it (nil until then); see dispatchIndex.
	ix *dispatchIndex
}

// SetStartTime anchors the ATC clock at t: rates are computed over
// now − t. Used by epoch-reassignment runs whose schedulers start mid-
// simulation.
func (s *Scheduler) SetStartTime(t float64) { s.startTime = t }

// StartTime returns the ATC clock anchor set by SetStartTime.
func (s *Scheduler) StartTime() float64 { return s.startTime }

// Counts returns a deep copy of the ATC assignment counts (tasks of type
// i assigned to core k so far). Together with StartTime it is the
// scheduler's complete mutable state, letting a checkpointed run rebuild
// an identically behaving scheduler with RestoreCounts. The candidate
// buffer ScheduleWith reuses is scratch, not state: nothing in it
// outlives an arrival. The dispatch index is derived from the plan, the
// counts and freeAt, and is rebuilt on demand.
func (s *Scheduler) Counts() [][]int {
	out := make([][]int, len(s.counts))
	for i := range s.counts {
		out[i] = append([]int(nil), s.counts[i]...)
	}
	return out
}

// RestoreCounts overwrites the ATC counts with a snapshot taken by Counts
// on an identically shaped scheduler (same task types, same core count).
// It drops the dispatch index, which the next call rebuilds.
func (s *Scheduler) RestoreCounts(counts [][]int) error {
	if len(counts) != len(s.counts) {
		return fmt.Errorf("sched: restoring %d task-type count rows, scheduler has %d", len(counts), len(s.counts))
	}
	for i := range counts {
		if len(counts[i]) != len(s.counts[i]) {
			return fmt.Errorf("sched: count row %d has %d cores, scheduler has %d", i, len(counts[i]), len(s.counts[i]))
		}
		copy(s.counts[i], counts[i])
	}
	s.ix = nil
	return nil
}

// New builds a scheduler for the given first-step assignment: per-core
// P-states and the Stage-3 desired-rate matrix TC[i][k].
func New(dc *model.DataCenter, pstates []int, tc [][]float64) (*Scheduler, error) {
	ncores := dc.NumCores()
	if len(pstates) != ncores {
		return nil, fmt.Errorf("sched: %d P-states for %d cores", len(pstates), ncores)
	}
	if len(tc) != dc.T() {
		return nil, fmt.Errorf("sched: TC has %d task rows, want %d", len(tc), dc.T())
	}
	s := &Scheduler{
		dc:       dc,
		pstates:  pstates,
		tc:       tc,
		counts:   make([][]int, dc.T()),
		execTime: make([][]float64, dc.T()),
		eligible: make([][]int, dc.T()),
	}
	for i := range s.counts {
		if len(tc[i]) != ncores {
			return nil, fmt.Errorf("sched: TC[%d] has %d cores, want %d", i, len(tc[i]), ncores)
		}
		s.counts[i] = make([]int, ncores)
		s.execTime[i] = make([]float64, ncores)
		k := 0
		for _, node := range dc.Nodes {
			for hi := k + dc.NodeTypes[node.Type].NumCores; k < hi; k++ {
				ecs := dc.ECS[i][node.Type][pstates[k]]
				if ecs <= 0 {
					s.execTime[i][k] = math.Inf(1)
				} else {
					s.execTime[i][k] = 1 / ecs
					s.eligible[i] = append(s.eligible[i], k)
				}
			}
		}
	}
	most := 0
	for _, el := range s.eligible {
		most = max(most, len(el))
	}
	s.cands = make([]Candidate, 0, most)
	return s, nil
}

// ExecTime returns the execution time of task type i on core k (possibly
// +Inf).
func (s *Scheduler) ExecTime(task, core int) float64 { return s.execTime[task][core] }

// Ratio returns ATC(i,k)/TC(i,k) at time now; cores with TC = 0 report
// +Inf so they are never selected.
func (s *Scheduler) Ratio(task, core int, now float64) float64 {
	tc := s.tc[task][core]
	if tc <= 0 {
		return math.Inf(1)
	}
	elapsed := now - s.startTime
	if elapsed <= 0 {
		return 0
	}
	return float64(s.counts[task][core]) / elapsed / tc
}

// Schedule picks a core for the task with the paper's min-ratio rule, or
// reports a drop. On success the internal ATC counts are updated; the
// caller must then occupy the core until completion. Equivalent to
// ScheduleWith(PaperPolicy{}, ...).
func (s *Scheduler) Schedule(task workload.Task, now float64, freeAt []float64) (core int, completion float64, ok bool) {
	return s.ScheduleWith(PaperPolicy{}, task, now, freeAt)
}

// ATC returns the achieved execution-rate matrix at the given time:
// counts/elapsed.
func (s *Scheduler) ATC(elapsed float64) [][]float64 {
	out := make([][]float64, len(s.counts))
	for i := range s.counts {
		out[i] = make([]float64, len(s.counts[i]))
		if elapsed <= 0 {
			continue
		}
		for k, c := range s.counts[i] {
			out[i][k] = float64(c) / elapsed
		}
	}
	return out
}
