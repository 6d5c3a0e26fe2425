package sched

import (
	"math"
	"testing"

	"thermaldc/internal/model"
	"thermaldc/internal/power"
	"thermaldc/internal/workload"
)

// twoCoreDC builds a 1-node, 2-core data center with one task type:
// ECS 1 at P-state 0, 0.5 at P-state 1.
func twoCoreDC() *model.DataCenter {
	nt := model.NodeType{
		Name:      "n",
		BasePower: 0.1,
		NumCores:  2,
		Core: power.CoreModel{
			FreqMHz: []float64{2000, 1000},
			Voltage: []float64{1, 1},
			P0Power: 0.1,
		},
		AirFlow: 0.07,
	}
	return &model.DataCenter{
		NodeTypes:   []model.NodeType{nt},
		Nodes:       []model.Node{{Type: 0}},
		CRACs:       []model.CRAC{{Flow: 0.07}},
		TaskTypes:   []model.TaskType{{Name: "t", Reward: 2, RelDeadline: 3, ArrivalRate: 1}},
		ECS:         model.ECS{{{1, 0.5, 0}}},
		Alpha:       [][]float64{{0, 1}, {1, 0}},
		RedlineNode: 25,
		RedlineCRAC: 40,
		Pconst:      10,
	}
}

func TestNewValidation(t *testing.T) {
	dc := twoCoreDC()
	tc := [][]float64{{0.5, 0.5}}
	if _, err := NewDense(dc, []int{0}, tc); err == nil {
		t.Error("wrong P-state count accepted")
	}
	if _, err := NewDense(dc, []int{0, 0}, [][]float64{}); err == nil {
		t.Error("wrong TC task count accepted")
	}
	if _, err := NewDense(dc, []int{0, 0}, [][]float64{{0.5}}); err == nil {
		t.Error("wrong TC core count accepted")
	}
	if _, err := NewDense(dc, []int{0, 0}, tc); err != nil {
		t.Errorf("valid inputs rejected: %v", err)
	}
	if _, err := NewDense(dc, []int{0, 3}, tc); err == nil {
		t.Error("P-state past the off state accepted")
	}
	// The last three are plans Stage 3 and Group never make: a group
	// spanning two P-states, a core in no group whose P-state can run the
	// task, and a group with no core.
	for _, bad := range []struct {
		name      string
		pstates   []int
		coreGroup []int32
		tasks     int
		groupRate []float64
	}{
		{"core count", []int{0, 0}, []int32{0}, 1, []float64{0.5}},
		{"task count", []int{0, 0}, []int32{0, 0}, 2, []float64{0.5, 0.5}},
		{"rate count", []int{0, 0}, []int32{0, 1}, 1, []float64{0.5}},
		{"group index", []int{0, 0}, []int32{0, -2}, 1, []float64{0.5}},
		{"mixed P-states", []int{0, 1}, []int32{0, 0}, 1, []float64{0.5}},
		{"runnable core in no group", []int{0, 0}, []int32{0, -1}, 1, []float64{0.5}},
		{"group with no core", []int{0, 1}, []int32{0, 2}, 1, []float64{0.5, 0.25, 0.125}},
	} {
		if _, err := New(dc, bad.pstates, bad.coreGroup, bad.tasks, bad.groupRate); err == nil {
			t.Errorf("grouped plan with a bad %s accepted", bad.name)
		}
	}
	if _, err := New(dc, []int{0, 2}, []int32{0, -1}, 1, []float64{0.5}); err != nil {
		t.Errorf("valid grouped plan rejected: %v", err)
	}
}

func TestExecTime(t *testing.T) {
	dc := twoCoreDC()
	s, err := NewDense(dc, []int{0, 1}, [][]float64{{0.5, 0.25}})
	if err != nil {
		t.Fatal(err)
	}
	if s.ExecTime(0, 0) != 1 {
		t.Errorf("exec time core 0 = %g, want 1", s.ExecTime(0, 0))
	}
	if s.ExecTime(0, 1) != 2 {
		t.Errorf("exec time core 1 = %g, want 2", s.ExecTime(0, 1))
	}
	// Off core: infinite exec time.
	s2, _ := NewDense(dc, []int{0, 2}, [][]float64{{0.5, 0}})
	if !math.IsInf(s2.ExecTime(0, 1), 1) {
		t.Error("off core should have infinite exec time")
	}
}

func TestSchedulePrefersLowestRatio(t *testing.T) {
	dc := twoCoreDC()
	s, err := NewDense(dc, []int{0, 0}, [][]float64{{1, 1}})
	if err != nil {
		t.Fatal(err)
	}
	freeAt := []float64{0, 0}
	// First assignment at t=1: both ratios 0; tie broken by earlier
	// completion — both identical, the scan picks core 0.
	task := workload.Task{Type: 0, Arrival: 1, Deadline: 4}
	core, done, ok := s.Schedule(task, 1, freeAt)
	if !ok || core != 0 || done != 2 {
		t.Fatalf("first schedule: core=%d done=%g ok=%v", core, done, ok)
	}
	freeAt[0] = done
	// Second at t=1.1: core 0 now has ratio > 0, core 1 has 0 → core 1.
	core, _, ok = s.Schedule(workload.Task{Type: 0, Arrival: 1.1, Deadline: 5}, 1.1, freeAt)
	if !ok || core != 1 {
		t.Fatalf("second schedule picked core %d, want 1", core)
	}
}

func TestScheduleDropsWhenDeadlineImpossible(t *testing.T) {
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{1, 1}})
	// Both cores busy until t=10; deadline 3 → drop.
	if _, _, ok := s.Schedule(workload.Task{Type: 0, Arrival: 1, Deadline: 3}, 1, []float64{10, 10}); ok {
		t.Fatal("task should be dropped")
	}
	// Deadline 12 → feasible (start 10, done 11).
	if _, _, ok := s.Schedule(workload.Task{Type: 0, Arrival: 1, Deadline: 12}, 1, []float64{10, 10}); !ok {
		t.Fatal("task should be schedulable")
	}
}

func TestScheduleSkipsZeroTC(t *testing.T) {
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{0, 1}})
	core, _, ok := s.Schedule(workload.Task{Type: 0, Arrival: 1, Deadline: 5}, 1, []float64{0, 0})
	if !ok || core != 1 {
		t.Fatalf("core = %d, want 1 (TC=0 core must be skipped)", core)
	}
}

func TestScheduleSkipsOverQuotaCores(t *testing.T) {
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{0.1, 0}})
	// Saturate core 0's quota: after 2 assignments by t=1, ATC = 2 > 0.1.
	freeAt := []float64{0, 0}
	for i := 0; i < 2; i++ {
		if _, done, ok := s.Schedule(workload.Task{Type: 0, Arrival: 0.1, Deadline: 50}, 0.1, freeAt); ok {
			freeAt[0] = done
		}
	}
	if r := s.Ratio(0, 0, 1); r <= 1 {
		t.Fatalf("ratio = %g, expected > 1", r)
	}
	// Now the only core with TC > 0 is over quota → drop.
	if _, _, ok := s.Schedule(workload.Task{Type: 0, Arrival: 1, Deadline: 50}, 1, freeAt); ok {
		t.Fatal("over-quota core should not accept tasks")
	}
}

func TestRatioEdgeCases(t *testing.T) {
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{1, 0}})
	if r := s.Ratio(0, 1, 5); !math.IsInf(r, 1) {
		t.Errorf("TC=0 ratio = %g, want +Inf", r)
	}
	if r := s.Ratio(0, 0, 0); r != 0 {
		t.Errorf("t=0 ratio = %g, want 0", r)
	}
}

func TestATCMatrix(t *testing.T) {
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{1, 1}})
	freeAt := []float64{0, 0}
	for i := 0; i < 4; i++ {
		now := float64(i)
		if core, done, ok := s.Schedule(workload.Task{Type: 0, Arrival: now, Deadline: now + 3}, now, freeAt); ok {
			freeAt[core] = done
		}
	}
	live := s.LiveCounts()
	total := float64(live[0])/4 + float64(live[1])/4
	if math.Abs(total-1) > 1e-9 {
		t.Errorf("total ATC = %g, want 1 (4 tasks / 4 s)", total)
	}
	counts := s.Counts()
	for k := 0; k < 2; k++ {
		if int(live[k]) != counts[0][k] {
			t.Errorf("live count of core %d = %d, Counts reads %d", k, live[k], counts[0][k])
		}
	}
}
