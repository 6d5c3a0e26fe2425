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

// refScheduler is the reference's plan and ATC state, read from the raw
// plan (dc.ECS at each core's node type and P-state, and the dense TC)
// rather than from a Scheduler, so the reference shares no code with New
// or Group: a core grouped under the wrong execution time or rate makes
// the two disagree.
type refScheduler struct {
	dc        *model.DataCenter
	pstates   []int
	tc        [][]float64
	counts    [][]int
	startTime float64
}

func newRef(dc *model.DataCenter, pstates []int, tc [][]float64) *refScheduler {
	counts := make([][]int, len(tc))
	for i := range counts {
		counts[i] = make([]int, len(pstates))
	}
	return &refScheduler{dc: dc, pstates: pstates, tc: tc, counts: counts}
}

// execTime is 1/ECS of task type i on core k, +Inf when it cannot run.
func (r *refScheduler) execTime(i, k int) float64 {
	ecs := r.dc.ECS[i][r.dc.Nodes[r.dc.CoreNode(k)].Type][r.pstates[k]]
	if ecs <= 0 {
		return math.Inf(1)
	}
	return 1 / ecs
}

// ratio is ATC(i,k)/TC(i,k) at now, +Inf where TC = 0.
func (r *refScheduler) ratio(i, k int, now float64) float64 {
	if r.tc[i][k] <= 0 {
		return math.Inf(1)
	}
	elapsed := now - r.startTime
	if elapsed <= 0 {
		return 0
	}
	return float64(r.counts[i][k]) / elapsed / r.tc[i][k]
}

// referenceScheduleWith is the straightforward ScheduleWith the hot path
// replaced: every core visited, a fresh candidate slice per arrival and
// math.Max. The differential test holds the optimized path to it.
func referenceScheduleWith(r *refScheduler, policy Policy, task workload.Task, now float64, freeAt []float64) (core int, completion float64, ok bool) {
	if policy == nil {
		panic("sched: nil policy")
	}
	var cands []Candidate
	for k := range freeAt {
		et := r.execTime(task.Type, k)
		if math.IsInf(et, 1) {
			continue
		}
		start := math.Max(now, freeAt[k])
		done := start + et
		if done > task.Deadline+1e-12 {
			continue
		}
		cands = append(cands, Candidate{
			Core:       k,
			Start:      start,
			Completion: done,
			Ratio:      r.ratio(task.Type, k, now),
		})
	}
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
	chosen := cands[idx]
	r.counts[task.Type][chosen.Core]++
	return chosen.Core, chosen.Completion, true
}

// diffPlan fails unless got holds the reference's plan: the same
// execution time for every (task type, core), bit for bit, and TC(i,k)
// wherever core k can run type i (the only place a rate is read).
func diffPlan(t *testing.T, label string, ref *refScheduler, got *Scheduler) {
	t.Helper()
	for i := range ref.tc {
		for k := range ref.pstates {
			et := ref.execTime(i, k)
			if math.Float64bits(got.ExecTime(i, k)) != math.Float64bits(et) {
				t.Fatalf("%s: ExecTime(%d, %d) = %v, want %v", label, i, k, got.ExecTime(i, k), et)
			}
			if !math.IsInf(et, 1) && math.Float64bits(got.Rate(i, k)) != math.Float64bits(ref.tc[i][k]) {
				t.Fatalf("%s: Rate(%d, %d) = %v, want %v", label, i, k, got.Rate(i, k), ref.tc[i][k])
			}
		}
	}
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

// diffPolicies lists every policy the differential tests drive; mk builds
// an identically seeded instance for each side.
var diffPolicies = []struct {
	name string
	mk   func(seed int64) Policy
}{
	{"paper", func(int64) Policy { return PaperPolicy{} }},
	{"soft-ratio", func(int64) Policy { return SoftRatioPolicy{} }},
	{"min-completion", func(int64) Policy { return MinCompletionPolicy{} }},
	{"random", func(seed int64) Policy { return &RandomPolicy{Rng: rand.New(rand.NewSource(seed))} }},
	{"round-robin", func(int64) Policy { return &RoundRobinPolicy{} }},
}

// diffStream checks got's plan against ref's, then streams tasks through
// ref (referenceScheduleWith) and got (ScheduleWith), each occupying its
// chosen cores in its own freeAt, and fails at the first differing
// decision. Right after every call, before the caller writes freeAt, got's
// dispatch index must match a rebuild.
func diffStream(t *testing.T, label string, ref *refScheduler, got *Scheduler, refPol, gotPol Policy, tasks []workload.Task, refFree, gotFree []float64) {
	t.Helper()
	diffPlan(t, label, ref, got)
	for n, task := range tasks {
		c1, d1, ok1 := referenceScheduleWith(ref, refPol, task, task.Arrival, refFree)
		c2, d2, ok2 := got.ScheduleWith(gotPol, task, task.Arrival, gotFree)
		if c1 != c2 || math.Float64bits(d1) != math.Float64bits(d2) || ok1 != ok2 {
			t.Fatalf("%s arrival %d: reference (%d,%v,%v), optimized (%d,%v,%v)",
				label, n, c1, d1, ok1, c2, d2, ok2)
		}
		if err := got.checkIndex(gotFree); err != nil {
			t.Fatalf("%s arrival %d: %v", label, n, err)
		}
		if ok1 {
			refFree[c1], gotFree[c2] = d1, d2
		}
	}
}

// diffCounts fails unless ref and got hold identical ATC counts.
func diffCounts(t *testing.T, label string, ref *refScheduler, got *Scheduler) {
	t.Helper()
	rc, gc := ref.counts, got.Counts()
	for i := range rc {
		for k := range rc[i] {
			if rc[i][k] != gc[i][k] {
				t.Fatalf("%s: counts[%d][%d] reference %d, optimized %d", label, i, k, rc[i][k], gc[i][k])
			}
		}
	}
}

// TestScheduleWithMatchesReference drives the optimized ScheduleWith and
// the reference side by side for every policy, and requires identical
// decisions at every arrival and identical counts at the end.
func TestScheduleWithMatchesReference(t *testing.T) {
	t.Run("random", testMatchesReferenceRandom)
	t.Run("grouped", testMatchesReferenceGrouped)
}

// testMatchesReferenceRandom runs random data centers and plans, whose
// core groups are mostly single cores. The streams include TC = 0 cores,
// arrivals at the ATC clock anchor (elapsed = 0), deadline-infeasible
// tasks and cores already busy when the stream starts.
func testMatchesReferenceRandom(t *testing.T) {
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

		for _, pol := range diffPolicies {
			ref := newRef(dc, pstates, tc)
			got, err := NewDense(dc, pstates, tc)
			if err != nil {
				t.Fatal(err)
			}
			ref.startTime = startTime
			got.SetStartTime(startTime)
			label := fmt.Sprintf("trial %d %s", trial, pol.name)
			diffStream(t, label, ref, got, pol.mk(trial), pol.mk(trial), tasks,
				append([]float64(nil), initFree...), append([]float64(nil), initFree...))
			diffCounts(t, label, ref, got)
		}
	}
}

// groupedDC builds a data center whose cores fall into large groups: 1-2
// node types of 8-16 cores and 1-3 P-states, 6-12 nodes and 1-3 task
// types, with about one (task, node type, P-state) triple in six unable to
// run.
func groupedDC(rng *rand.Rand) *model.DataCenter {
	dc := randomDC(rng)
	dc.NodeTypes = dc.NodeTypes[:1+rng.Intn(min(2, len(dc.NodeTypes)))]
	for nt := range dc.NodeTypes {
		dc.NodeTypes[nt].NumCores = 8 + rng.Intn(9)
	}
	dc.Nodes = dc.Nodes[:0]
	for n := 6 + rng.Intn(7); n > 0; n-- {
		dc.Nodes = append(dc.Nodes, model.Node{Type: rng.Intn(len(dc.NodeTypes))})
	}
	for i := range dc.ECS {
		dc.ECS[i] = dc.ECS[i][:len(dc.NodeTypes)]
		for nt := range dc.ECS[i] {
			for p := 0; p < dc.NodeTypes[nt].OffState(); p++ {
				// Execution times on a quarter grid, so completions tie
				// across groups too.
				dc.ECS[i][nt][p] = 1 / (0.25 * float64(1+rng.Intn(8)))
				if rng.Intn(6) == 0 {
					dc.ECS[i][nt][p] = 0
				}
			}
		}
	}
	return dc
}

// groupedPlan draws a plan shaped like the first step's output. Each node
// runs its cores at one or two P-states (a few off). With perNode false,
// TC is constant per (task, node type, P-state), as Stage 3 splits it;
// with perNode true it is constant per (task, node), as a Baseline plan
// is. About a fifth of the TC values are zero.
func groupedPlan(rng *rand.Rand, dc *model.DataCenter, perNode bool) (pstates []int, tc [][]float64) {
	var node []int
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		a, b := rng.Intn(nt.NumPStates()), rng.Intn(nt.NumPStates())
		for c := 0; c < nt.NumCores; c++ {
			p := a
			if c%3 == 0 {
				p = b
			}
			if rng.Intn(10) == 0 {
				p = nt.OffState()
			}
			pstates = append(pstates, p)
			node = append(node, j)
		}
	}
	draw := func() float64 {
		if rng.Intn(5) == 0 {
			return 0
		}
		return 0.05 + 0.5*rng.Float64()
	}
	tc = make([][]float64, dc.T())
	for i := range tc {
		byKey := map[[2]int]float64{}
		tc[i] = make([]float64, len(pstates))
		for k := range tc[i] {
			key := [2]int{node[k], -1}
			if !perNode {
				key = [2]int{dc.Nodes[node[k]].Type, pstates[k]}
			}
			v, ok := byKey[key]
			if !ok {
				v = draw()
				byKey[key] = v
			}
			tc[i][k] = v
		}
	}
	return pstates, tc
}

// groupedStream draws n arrivals from t0 on a quarter-second grid: the
// first few land exactly on t0 (elapsed = 0 when t0 is the ATC anchor),
// later ones tie often, and about one in eight has a deadline no core
// can meet.
func groupedStream(rng *rand.Rand, dc *model.DataCenter, t0 float64, n int) []workload.Task {
	var tasks []workload.Task
	now := t0
	for m := 0; m < n; m++ {
		if m >= 3 && rng.Intn(3) > 0 {
			now += 0.25 * float64(rng.Intn(3))
		}
		slack := 0.25 * float64(4+rng.Intn(40))
		if rng.Intn(8) == 0 {
			slack = 0.01
		}
		tasks = append(tasks, workload.Task{Type: rng.Intn(dc.T()), Arrival: now, Deadline: now + slack})
	}
	return tasks
}

// testMatchesReferenceGrouped holds the dispatch index to the reference on plans shaped like the first step's, whose groups of
// identical cores are large enough for the tree walk and its pruning to
// run: Stage-3-shaped and Baseline-shaped TC, freeAt exactly at the
// arrival time, tied completions within and across groups, and arrivals at
// the ATC anchor mixed with later ones. Midway through the first run the
// counts move into a fresh scheduler via Counts/RestoreCounts; a second
// run then carries that scheduler and both freeAt slices on from a new
// ATC anchor, as the epoch controller does.
func testMatchesReferenceGrouped(t *testing.T) {
	largest := 0
	for trial := int64(0); trial < 60; trial++ {
		rng := rand.New(rand.NewSource(1000 + trial))
		dc := groupedDC(rng)
		pstates, tc := groupedPlan(rng, dc, trial%2 == 1)
		t0 := float64(rng.Intn(3))
		initFree := make([]float64, len(pstates))
		for k := range initFree {
			switch rng.Intn(3) {
			case 0:
				initFree[k] = t0 // exactly at the first arrival
			case 1:
				initFree[k] = t0 + 0.25*float64(rng.Intn(16))
			}
		}
		first := groupedStream(rng, dc, t0, 300)
		t1 := first[len(first)-1].Arrival + 0.5
		second := groupedStream(rng, dc, t1, 300)

		for _, pol := range diffPolicies {
			label := fmt.Sprintf("trial %d %s", trial, pol.name)
			ref := newRef(dc, pstates, tc)
			got, err := NewDense(dc, pstates, tc)
			if err != nil {
				t.Fatal(err)
			}
			ref.startTime = t0
			got.SetStartTime(t0)
			refPol, gotPol := pol.mk(trial), pol.mk(trial)
			refFree := append([]float64(nil), initFree...)
			gotFree := append([]float64(nil), initFree...)

			half := len(first) / 2
			diffStream(t, label+" run 1", ref, got, refPol, gotPol, first[:half], refFree, gotFree)
			restored, err := NewDense(dc, pstates, tc)
			if err != nil {
				t.Fatal(err)
			}
			restored.SetStartTime(got.StartTime())
			if err := restored.RestoreCounts(got.Counts()); err != nil {
				t.Fatal(err)
			}
			got = restored
			diffStream(t, label+" run 1 restored", ref, got, refPol, gotPol, first[half:], refFree, gotFree)

			ref.startTime = t1
			got.SetStartTime(t1)
			diffStream(t, label+" run 2", ref, got, refPol, gotPol, second, refFree, gotFree)
			diffCounts(t, label, ref, got)
			if pol.name == "paper" {
				if got.ix == nil || !got.ix.built {
					t.Fatalf("%s: the dispatch index never ran", label)
				}
				for g := 0; g+1 < len(got.ix.start); g++ {
					largest = max(largest, int(got.ix.start[g+1]-got.ix.start[g]))
				}
			}
		}
	}
	if largest < 30 {
		t.Fatalf("largest core group has %d cores, want at least 30 to exercise the tree walk", largest)
	}
}

// TestScheduleWithZeroAllocs pins the per-arrival hot path, the dispatch
// index here, at zero heap allocations once the scheduler exists and the
// index is built (AllocsPerRun's warm-up call builds it).
func TestScheduleWithZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	dc := randomDC(rng)
	pstates, tc := randomPlan(rng, dc)
	s, err := NewDense(dc, pstates, tc)
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
		t.Fatal("no arrival was assigned; the run does not exercise the dispatch path")
	}
	if s.ix == nil || !s.ix.built || s.ix.disabled {
		t.Fatal("PaperPolicy arrivals after the ATC anchor did not take the dispatch index")
	}
	if allocs != 0 {
		t.Fatalf("ScheduleWith allocates %v times per arrival, want 0", allocs)
	}
}
