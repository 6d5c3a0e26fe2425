package sched

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"thermaldc/internal/model"
	"thermaldc/internal/power"
	"thermaldc/internal/workload"
)

// referenceScheduleWith is the straightforward ScheduleWith the hot path
// replaced: a fresh candidate slice per arrival, per-core Ratio calls and
// math.Max. The differential test holds the optimized path to it.
func referenceScheduleWith(s *Scheduler, policy Policy, task workload.Task, now float64, freeAt []float64) (core int, completion float64, ok bool) {
	if policy == nil {
		panic("sched: nil policy")
	}
	var cands []Candidate
	for _, k := range s.eligible[task.Type] {
		et := s.execTime[task.Type][k]
		start := math.Max(now, freeAt[k])
		done := start + et
		if done > task.Deadline+1e-12 {
			continue
		}
		cands = append(cands, Candidate{
			Core:       k,
			Start:      start,
			Completion: done,
			Ratio:      s.Ratio(task.Type, k, now),
		})
	}
	if len(cands) == 0 {
		s.mRejected.Inc()
		return -1, 0, false
	}
	idx, drop := policy.Pick(task, now, cands)
	if drop {
		s.mRejected.Inc()
		return -1, 0, false
	}
	if idx < 0 || idx >= len(cands) {
		panic(fmt.Sprintf("sched: policy %s picked invalid candidate %d of %d", policy.Name(), idx, len(cands)))
	}
	chosen := cands[idx]
	s.counts[task.Type][chosen.Core]++
	s.mAssigned.Inc()
	return chosen.Core, chosen.Completion, true
}

// randomDC builds a small heterogeneous data center: 1-3 node types of
// 1-4 cores and 1-3 P-states, 1-5 nodes, 1-3 task types, and an ECS
// matrix in which roughly a quarter of the (task, node type, P-state)
// pairs cannot run at all.
func randomDC(rng *rand.Rand) *model.DataCenter {
	dc := &model.DataCenter{}
	for n := 1 + rng.Intn(3); n > 0; n-- {
		ps := 1 + rng.Intn(3)
		freq := make([]float64, ps)
		volt := make([]float64, ps)
		for p := range freq {
			freq[p] = 2000 - 400*float64(p)
			volt[p] = 1
		}
		dc.NodeTypes = append(dc.NodeTypes, model.NodeType{
			NumCores: 1 + rng.Intn(4),
			Core:     power.CoreModel{FreqMHz: freq, Voltage: volt, P0Power: 0.1},
		})
	}
	for n := 1 + rng.Intn(5); n > 0; n-- {
		dc.Nodes = append(dc.Nodes, model.Node{Type: rng.Intn(len(dc.NodeTypes))})
	}
	ntask := 1 + rng.Intn(3)
	dc.ECS = make(model.ECS, ntask)
	for i := 0; i < ntask; i++ {
		dc.TaskTypes = append(dc.TaskTypes, model.TaskType{Reward: 1, RelDeadline: 3, ArrivalRate: 1})
		dc.ECS[i] = make([][]float64, len(dc.NodeTypes))
		for nt := range dc.NodeTypes {
			off := dc.NodeTypes[nt].OffState()
			dc.ECS[i][nt] = make([]float64, off+1)
			for p := 0; p < off; p++ {
				if rng.Float64() >= 0.25 {
					dc.ECS[i][nt][p] = 0.2 + 2*rng.Float64()
				}
			}
		}
	}
	return dc
}

// randomPlan draws per-core P-states (about one core in six off) and a TC
// matrix with about a third of its entries zero.
func randomPlan(rng *rand.Rand, dc *model.DataCenter) (pstates []int, tc [][]float64) {
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		for c := 0; c < nt.NumCores; c++ {
			p := rng.Intn(nt.NumPStates())
			if rng.Intn(6) == 0 {
				p = nt.OffState()
			}
			pstates = append(pstates, p)
		}
	}
	tc = make([][]float64, dc.T())
	for i := range tc {
		tc[i] = make([]float64, len(pstates))
		for k := range tc[i] {
			if rng.Intn(3) > 0 {
				tc[i][k] = 0.05 + rng.Float64()
			}
		}
	}
	return pstates, tc
}

// TestScheduleWithMatchesReference drives the optimized ScheduleWith and
// the reference side by side on random data centers and plans, for every
// policy, and requires identical decisions at every arrival and identical
// counts at the end. The streams include TC = 0 cores, arrivals at the
// ATC clock anchor (elapsed = 0), deadline-infeasible tasks and cores
// already busy when the stream starts.
func TestScheduleWithMatchesReference(t *testing.T) {
	policies := []struct {
		name string
		mk   func(seed int64) Policy
	}{
		{"paper", func(int64) Policy { return PaperPolicy{} }},
		{"soft-ratio", func(int64) Policy { return SoftRatioPolicy{} }},
		{"min-completion", func(int64) Policy { return MinCompletionPolicy{} }},
		{"random", func(seed int64) Policy { return &RandomPolicy{Rng: rand.New(rand.NewSource(seed))} }},
		{"round-robin", func(int64) Policy { return &RoundRobinPolicy{} }},
	}
	for trial := int64(0); trial < 200; trial++ {
		rng := rand.New(rand.NewSource(trial))
		dc := randomDC(rng)
		pstates, tc := randomPlan(rng, dc)
		startTime := float64(rng.Intn(3)) * 2.5
		ncores := len(pstates)
		initFree := make([]float64, ncores)
		for k := range initFree {
			if rng.Intn(2) == 0 {
				initFree[k] = startTime + 4*rng.Float64()
			}
		}
		var tasks []workload.Task
		now := startTime
		for n := 0; n < 60; n++ {
			// The first arrival and a few later ties land exactly on the
			// previous arrival time, the first one at the clock anchor.
			if n > 0 && rng.Intn(5) > 0 {
				now += rng.ExpFloat64() * 0.3
			}
			slack := 0.1 + 6*rng.Float64()
			if rng.Intn(8) == 0 {
				slack = 0.01 // tighter than any execution time: infeasible
			}
			tasks = append(tasks, workload.Task{Type: rng.Intn(dc.T()), Arrival: now, Deadline: now + slack})
		}

		for _, pol := range policies {
			ref, err := New(dc, pstates, tc)
			if err != nil {
				t.Fatal(err)
			}
			got, err := New(dc, pstates, tc)
			if err != nil {
				t.Fatal(err)
			}
			ref.SetStartTime(startTime)
			got.SetStartTime(startTime)
			refPol, gotPol := pol.mk(trial), pol.mk(trial)
			refFree := append([]float64(nil), initFree...)
			gotFree := append([]float64(nil), initFree...)
			for n, task := range tasks {
				c1, d1, ok1 := referenceScheduleWith(ref, refPol, task, task.Arrival, refFree)
				c2, d2, ok2 := got.ScheduleWith(gotPol, task, task.Arrival, gotFree)
				if c1 != c2 || math.Float64bits(d1) != math.Float64bits(d2) || ok1 != ok2 {
					t.Fatalf("trial %d %s arrival %d: reference (%d,%v,%v), optimized (%d,%v,%v)",
						trial, pol.name, n, c1, d1, ok1, c2, d2, ok2)
				}
				if ok1 {
					refFree[c1], gotFree[c2] = d1, d2
				}
			}
			rc, gc := ref.Counts(), got.Counts()
			for i := range rc {
				for k := range rc[i] {
					if rc[i][k] != gc[i][k] {
						t.Fatalf("trial %d %s: counts[%d][%d] reference %d, optimized %d",
							trial, pol.name, i, k, rc[i][k], gc[i][k])
					}
				}
			}
		}
	}
}

// TestScheduleWithZeroAllocs pins the per-arrival hot path at zero heap
// allocations once the scheduler exists.
func TestScheduleWithZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dc := randomDC(rng)
	pstates, tc := randomPlan(rng, dc)
	s, err := New(dc, pstates, tc)
	if err != nil {
		t.Fatal(err)
	}
	freeAt := make([]float64, len(pstates))
	task := workload.Task{Type: 0, Arrival: 1, Deadline: 1e9}
	now := 1.0
	assigned := 0
	allocs := testing.AllocsPerRun(200, func() {
		now += 0.01
		task.Arrival = now
		if core, done, ok := s.ScheduleWith(PaperPolicy{}, task, now, freeAt); ok {
			freeAt[core] = done
			assigned++
		}
	})
	if assigned == 0 {
		t.Fatal("no arrival was assigned; the run does not exercise the candidate scan")
	}
	if allocs != 0 {
		t.Fatalf("ScheduleWith allocates %v times per arrival, want 0", allocs)
	}
}
