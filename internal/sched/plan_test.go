package sched_test

import (
	"math"
	"math/rand"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

// TestGroupedMatchesDensePaperScale builds two schedulers for each of two
// paper-scale plans (150 nodes, 3 CRACs): the three-stage plan and the
// Baseline plan, whose TC is per node. One comes from the plan's groups
// (Stage 3's CoreGroup/GroupRate; the Baseline plan's running cores
// grouped by node and P-state), the other through sched.Group from the
// dense TC. Under every policy, both must return the same (core,
// completion bits, ok) at every arrival. Midway, each side's counts move into a fresh scheduler
// of the other kind through Counts/RestoreCounts, and the stream goes on.
func TestGroupedMatchesDensePaperScale(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale first-step solves")
	}
	cfg := scenario.Default(0.3, 0.1, 1)
	cfg.NCracs, cfg.NNodes = 3, 150
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc := sc.DC
	ts, err := assign.ThreeStage(dc, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	bl, err := assign.Baseline(dc, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	blPStates, blTC := bl.Assignment(dc)
	blGroup, blRate := groupByNode(dc, blPStates, blTC)

	type plan struct {
		name      string
		pstates   []int
		coreGroup []int32
		groupRate []float64
		tc        [][]float64
	}
	plans := []plan{
		{"three-stage", ts.PStates, ts.Stage3.CoreGroup, ts.Stage3.GroupRate, ts.Stage3.Dense()},
		{"baseline", blPStates, blGroup, blRate, blTC},
	}
	tasks := workload.GenerateTasks(dc, 10, stats.NewRand(17))
	policies := []func() sched.Policy{
		func() sched.Policy { return sched.PaperPolicy{} },
		func() sched.Policy { return sched.SoftRatioPolicy{} },
		func() sched.Policy { return sched.MinCompletionPolicy{} },
		func() sched.Policy { return &sched.RandomPolicy{Rng: rand.New(rand.NewSource(5))} },
		func() sched.Policy { return &sched.RoundRobinPolicy{} },
	}
	for _, p := range plans {
		grouped := func() *sched.Scheduler {
			s, err := sched.New(dc, p.pstates, p.coreGroup, dc.T(), p.groupRate)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		dense := func() *sched.Scheduler {
			s, err := sched.NewDense(dc, p.pstates, p.tc)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
		for _, mk := range policies {
			gotPol, refPol := mk(), mk()
			got, ref := grouped(), dense()
			gotFree := make([]float64, dc.NumCores())
			refFree := make([]float64, dc.NumCores())
			assigned, dropped := 0, 0
			for n, task := range tasks {
				if n == len(tasks)/2 {
					got, ref = roundTrip(t, got, dense()), roundTrip(t, ref, grouped())
				}
				c1, d1, ok1 := got.ScheduleWith(gotPol, task, task.Arrival, gotFree)
				c2, d2, ok2 := ref.ScheduleWith(refPol, task, task.Arrival, refFree)
				if c1 != c2 || math.Float64bits(d1) != math.Float64bits(d2) || ok1 != ok2 {
					t.Fatalf("%s %s arrival %d: grouped (%d,%v,%v), dense (%d,%v,%v)",
						p.name, gotPol.Name(), n, c1, d1, ok1, c2, d2, ok2)
				}
				if !ok1 {
					dropped++
					continue
				}
				assigned++
				gotFree[c1], refFree[c2] = d1, d2
			}
			if assigned == 0 {
				t.Fatalf("%s %s: no arrival was assigned", p.name, gotPol.Name())
			}
			if gotPol.Name() == "paper-min-ratio" && dropped == 0 {
				t.Fatalf("%s: the paper policy dropped nothing; the stream does not reach its quotas", p.name)
			}
		}
	}
}

// roundTrip moves from's ATC state into to and returns to.
func roundTrip(t *testing.T, from, to *sched.Scheduler) *sched.Scheduler {
	t.Helper()
	to.SetStartTime(from.StartTime())
	if err := to.RestoreCounts(from.Counts()); err != nil {
		t.Fatal(err)
	}
	return to
}

// groupByNode groups a Baseline plan's running cores by node and
// P-state, the form its per-node TC takes: node j's running cores at one
// P-state share a group and node j's rates, and off cores are in no group.
func groupByNode(dc *model.DataCenter, pstates []int, tc [][]float64) ([]int32, []float64) {
	coreGroup := make([]int32, len(pstates))
	var groupRate []float64
	ids := map[[2]int]int32{}
	for k, ps := range pstates {
		j := dc.CoreNode(k)
		if ps == dc.NodeType(j).OffState() {
			coreGroup[k] = -1
			continue
		}
		g, ok := ids[[2]int{j, ps}]
		if !ok {
			g = int32(len(ids))
			ids[[2]int{j, ps}] = g
			for i := range tc {
				groupRate = append(groupRate, tc[i][k])
			}
		}
		coreGroup[k] = g
	}
	return coreGroup, groupRate
}
