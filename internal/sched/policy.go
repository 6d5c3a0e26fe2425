package sched

import (
	"fmt"
	"math"
	"math/rand"

	"thermaldc/internal/workload"
)

// Candidate is one deadline-feasible core choice for an arriving task.
type Candidate struct {
	// Core is the global core index.
	Core int
	// Start and Completion are the execution window if chosen.
	Start, Completion float64
	// Ratio is ATC/TC at decision time (+Inf when TC = 0 for this pair).
	Ratio float64
}

// Policy chooses among deadline-feasible candidates (never empty) or
// decides to drop the task anyway. Implementations must be deterministic
// given their own state.
type Policy interface {
	// Name identifies the policy in experiment output.
	Name() string
	// Pick returns the index into cands of the chosen core, or drop=true.
	// cands is scratch owned by the Scheduler: it is valid only during the
	// call and is overwritten by the next arrival, so Pick must not retain
	// it (or any subslice of it).
	Pick(task workload.Task, now float64, cands []Candidate) (idx int, drop bool)
}

// PaperPolicy is the paper's Section-V.C rule: among cores whose
// actual/desired ratio is at most 1, pick the minimum ratio (ties: the
// earliest completion); if every candidate is over its desired rate, drop.
type PaperPolicy struct{}

// Name implements Policy.
func (PaperPolicy) Name() string { return "paper-min-ratio" }

// Pick implements Policy.
func (PaperPolicy) Pick(_ workload.Task, _ float64, cands []Candidate) (int, bool) {
	best := -1
	for i, c := range cands {
		if c.Ratio > 1 {
			continue
		}
		if best < 0 || c.Ratio < cands[best].Ratio ||
			(c.Ratio == cands[best].Ratio && c.Completion < cands[best].Completion) {
			best = i
		}
	}
	if best < 0 {
		return 0, true
	}
	return best, false
}

// SoftRatioPolicy is our softened variant of the paper's rule: prefer the
// minimum-ratio core among those within quota, but when every candidate is
// over its desired rate, assign to the minimum-ratio core anyway instead
// of dropping. The policy-ablation experiment motivates it: the hard
// quota cap forfeits reward that idle cores could harvest, especially
// early in a run when the ATC estimate is noisy.
type SoftRatioPolicy struct{}

// Name implements Policy.
func (SoftRatioPolicy) Name() string { return "soft-min-ratio" }

// Pick implements Policy.
func (SoftRatioPolicy) Pick(task workload.Task, now float64, cands []Candidate) (int, bool) {
	if idx, drop := (PaperPolicy{}).Pick(task, now, cands); !drop {
		return idx, false
	}
	// All over quota: take the least-over-quota core; among untracked
	// (TC = 0, ratio +Inf) cores prefer the earliest completion.
	best := 0
	for i, c := range cands {
		if c.Ratio < cands[best].Ratio ||
			(c.Ratio == cands[best].Ratio && c.Completion < cands[best].Completion) {
			best = i
		}
	}
	return best, false
}

// MinCompletionPolicy greedily picks the earliest completion regardless of
// the desired rates (a natural "fastest first" strawman).
type MinCompletionPolicy struct{}

// Name implements Policy.
func (MinCompletionPolicy) Name() string { return "min-completion" }

// Pick implements Policy.
func (MinCompletionPolicy) Pick(_ workload.Task, _ float64, cands []Candidate) (int, bool) {
	best := 0
	for i, c := range cands {
		if c.Completion < cands[best].Completion {
			best = i
		}
	}
	return best, false
}

// RandomPolicy picks a uniformly random feasible core; it isolates how
// much of the paper policy's value comes from honoring TC at all.
type RandomPolicy struct {
	// Rng must be non-nil.
	Rng *rand.Rand
}

// Name implements Policy.
func (*RandomPolicy) Name() string { return "random-feasible" }

// Pick implements Policy.
func (p *RandomPolicy) Pick(_ workload.Task, _ float64, cands []Candidate) (int, bool) {
	return p.Rng.Intn(len(cands)), false
}

// RoundRobinPolicy cycles through cores, taking the next feasible one.
type RoundRobinPolicy struct {
	next int
}

// Name implements Policy.
func (*RoundRobinPolicy) Name() string { return "round-robin" }

// Pick implements Policy.
func (p *RoundRobinPolicy) Pick(_ workload.Task, _ float64, cands []Candidate) (int, bool) {
	best := 0
	bestKey := math.MaxInt
	for i, c := range cands {
		key := c.Core - p.next
		if key < 0 {
			key += 1 << 30
		}
		if key < bestKey {
			bestKey, best = key, i
		}
	}
	p.next = cands[best].Core + 1
	return best, false
}

// ScheduleWith is the policy-parameterized variant of Schedule: the
// scheduler builds the deadline-feasible candidate set (cores that can run
// the type at all), the policy chooses. ATC counts update on assignment.
//
// It runs once per task arrival, so it allocates nothing per arrival: the
// candidate set is built in a buffer the Scheduler owns and reuses (see
// Policy.Pick for the scratch contract). PaperPolicy with now after the
// ATC clock anchor skips the candidate set altogether: a dispatch index
// over groups of identical cores, allocated once when first needed,
// returns the same choice in sublinear time.
//
// freeAt stays the caller's: ScheduleWith reads it and never writes it.
// The index mirrors it between calls, which holds under this contract:
// between two calls with the same slice, only the entry of the core the
// earlier call returned may change (the caller occupying that core, as
// sim.RunOpts does). Passing a different slice is always allowed; the
// index is then rebuilt from it.
func (s *Scheduler) ScheduleWith(policy Policy, task workload.Task, now float64, freeAt []float64) (core int, completion float64, ok bool) {
	if policy == nil {
		panic("sched: nil policy")
	}
	s.resync(freeAt)
	elapsed := now - s.startTime
	limit := task.Deadline + 1e-12
	if _, paper := policy.(PaperPolicy); paper && elapsed > 0 {
		if x := s.index(freeAt); x != nil && x.exact(elapsed) {
			core, completion, ok = x.dispatch(task.Type, now, elapsed, limit, s.counts[task.Type*s.ncores:(task.Type+1)*s.ncores])
			return s.settle(task.Type, core, completion, ok)
		}
	}
	core, completion, ok = s.scan(policy, task, now, elapsed, limit, freeAt)
	return s.settle(task.Type, core, completion, ok)
}

// scan builds the candidate set and lets the policy pick.
func (s *Scheduler) scan(policy Policy, task workload.Task, now, elapsed, limit float64, freeAt []float64) (core int, completion float64, ok bool) {
	typ := task.Type
	counts := s.counts[typ*s.ncores : (typ+1)*s.ncores]
	if s.cands == nil {
		s.cands = make([]Candidate, 0, s.most)
	}
	cands := s.cands[:0]
	for _, r := range s.runs[s.runStart[typ]:s.runStart[typ+1]] {
		exec, tc := s.exec[int(r.g)*s.tasks+typ], s.rate[int(r.g)*s.tasks+typ]
		for k := int(r.lo); k < int(r.hi); k++ {
			start := max(now, freeAt[k])
			done := start + exec
			if done > limit {
				continue
			}
			// Same branches and expression as Ratio.
			var ratio float64
			if tc <= 0 {
				ratio = math.Inf(1)
			} else if elapsed > 0 {
				ratio = float64(counts[k]) / elapsed / tc
			}
			cands = append(cands, Candidate{
				Core:       k,
				Start:      start,
				Completion: done,
				Ratio:      ratio,
			})
		}
	}
	s.cands = cands
	if len(cands) == 0 {
		return -1, 0, false
	}
	idx, drop := policy.Pick(task, now, cands)
	if drop {
		return -1, 0, false
	}
	if idx < 0 || idx >= len(cands) {
		panic(fmt.Sprintf("sched: policy %s picked invalid candidate %d of %d", policy.Name(), idx, len(cands)))
	}
	return cands[idx].Core, cands[idx].Completion, true
}

// settle books a decision. Every assignment, by the index or the scan,
// goes through here: it bumps the ATC count, keeps the index's count tree
// in step and remembers the core, whose freeAt entry the caller is about
// to change.
func (s *Scheduler) settle(typ, core int, completion float64, ok bool) (int, float64, bool) {
	if !ok {
		return -1, 0, false
	}
	c := &s.counts[typ*s.ncores+core]
	if *c == math.MaxInt32 {
		panic(fmt.Sprintf("sched: count of task type %d on core %d overflows int32", typ, core))
	}
	*c++
	if x := s.ix; x != nil && x.built {
		x.setCount(typ, core, *c)
		x.last = core
	}
	return core, completion, true
}

// resync brings a built index up to date with freeAt at the start of a
// call: it re-reads the entry of the core the previous call returned, or
// drops the trees when freeAt is a different slice.
func (s *Scheduler) resync(freeAt []float64) {
	x := s.ix
	if x == nil || !x.built {
		return
	}
	if len(freeAt) != len(x.freeAt) || (len(freeAt) > 0 && &freeAt[0] != &x.freeAt[0]) {
		x.built, x.freeAt = false, nil
		return
	}
	if x.last >= 0 {
		x.setFree(x.last, freeAt[x.last])
		x.last = -1
	}
}

// index returns the dispatch index mirroring freeAt, deriving the groups
// and filling the trees as needed, or nil when the plan rules it out.
func (s *Scheduler) index(freeAt []float64) *dispatchIndex {
	if s.ix == nil {
		s.ix = newDispatchIndex(s)
	}
	x := s.ix
	if !x.disabled && !x.built {
		x.fill(freeAt, s.counts)
	}
	if x.disabled {
		return nil
	}
	return x
}
