package sched

import (
	"math/rand"
	"testing"

	"thermaldc/internal/workload"
)

func schedulerForPolicies(t *testing.T) *Scheduler {
	t.Helper()
	dc := twoCoreDC()
	s, err := NewDense(dc, []int{0, 1}, [][]float64{{1, 0.5}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestScheduleWithMatchesSchedule(t *testing.T) {
	dc := twoCoreDC()
	mk := func() *Scheduler {
		s, err := NewDense(dc, []int{0, 0}, [][]float64{{0.7, 0.9}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	a, b := mk(), mk()
	freeA := []float64{0, 0}
	freeB := []float64{0, 0}
	for i := 0; i < 20; i++ {
		now := float64(i) * 0.5
		task := workload.Task{Type: 0, Arrival: now, Deadline: now + 3}
		c1, d1, ok1 := a.Schedule(task, now, freeA)
		c2, d2, ok2 := b.ScheduleWith(PaperPolicy{}, task, now, freeB)
		if c1 != c2 || d1 != d2 || ok1 != ok2 {
			t.Fatalf("step %d: Schedule (%d,%g,%v) != ScheduleWith(Paper) (%d,%g,%v)",
				i, c1, d1, ok1, c2, d2, ok2)
		}
		if ok1 {
			freeA[c1], freeB[c2] = d1, d2
		}
	}
}

func TestMinCompletionPolicyPicksFastest(t *testing.T) {
	s := schedulerForPolicies(t)
	// Core 0 at P0 (exec 1), core 1 at P1 (exec 2): min completion = core 0.
	task := workload.Task{Type: 0, Arrival: 0, Deadline: 10}
	core, _, ok := s.ScheduleWith(MinCompletionPolicy{}, task, 0, []float64{0, 0})
	if !ok || core != 0 {
		t.Fatalf("core = %d, want 0", core)
	}
	// With core 0 busy until t=5, core 1 completes sooner (2 vs 6).
	core, _, ok = s.ScheduleWith(MinCompletionPolicy{}, task, 0, []float64{5, 0})
	if !ok || core != 1 {
		t.Fatalf("core = %d, want 1", core)
	}
}

func TestMinCompletionIgnoresQuota(t *testing.T) {
	// Unlike the paper policy, min-completion serves tasks even when every
	// core is over its desired rate.
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{0.01, 0.01}})
	freeAt := []float64{0, 0}
	for i := 0; i < 5; i++ {
		if core, done, ok := s.ScheduleWith(MinCompletionPolicy{}, workload.Task{Type: 0, Arrival: 0.1, Deadline: 50}, 0.1, freeAt); ok {
			freeAt[core] = done
		} else {
			t.Fatal("min-completion should never drop a feasible task")
		}
	}
	if _, _, ok := s.ScheduleWith(PaperPolicy{}, workload.Task{Type: 0, Arrival: 1, Deadline: 50}, 1, freeAt); ok {
		t.Fatal("paper policy should drop once over quota")
	}
}

func TestRandomPolicyIsFeasibleAndSeeded(t *testing.T) {
	s := schedulerForPolicies(t)
	p1 := &RandomPolicy{Rng: rand.New(rand.NewSource(1))}
	task := workload.Task{Type: 0, Arrival: 0, Deadline: 10}
	seen := map[int]bool{}
	freeAt := []float64{0, 0}
	for i := 0; i < 30; i++ {
		core, _, ok := s.ScheduleWith(p1, task, 0, freeAt)
		if !ok {
			t.Fatal("random policy dropped a feasible task")
		}
		seen[core] = true
	}
	if len(seen) != 2 {
		t.Error("random policy never explored both cores")
	}
}

func TestRoundRobinCycles(t *testing.T) {
	s := schedulerForPolicies(t)
	p := &RoundRobinPolicy{}
	task := workload.Task{Type: 0, Arrival: 0, Deadline: 100}
	var order []int
	freeAt := []float64{0, 0}
	for i := 0; i < 4; i++ {
		core, _, ok := s.ScheduleWith(p, task, 0, freeAt)
		if !ok {
			t.Fatal("round robin dropped")
		}
		order = append(order, core)
	}
	want := []int{0, 1, 0, 1}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestPolicyNames(t *testing.T) {
	names := map[string]Policy{
		"paper-min-ratio": PaperPolicy{},
		"min-completion":  MinCompletionPolicy{},
		"random-feasible": &RandomPolicy{Rng: rand.New(rand.NewSource(1))},
		"round-robin":     &RoundRobinPolicy{},
	}
	for want, p := range names {
		if p.Name() != want {
			t.Errorf("Name() = %q, want %q", p.Name(), want)
		}
	}
}

func TestScheduleWithNilPolicyPanics(t *testing.T) {
	s := schedulerForPolicies(t)
	defer func() {
		if recover() == nil {
			t.Fatal("nil policy did not panic")
		}
	}()
	s.ScheduleWith(nil, workload.Task{}, 0, []float64{0, 0})
}

func TestSoftRatioFallsBackInsteadOfDropping(t *testing.T) {
	dc := twoCoreDC()
	s, _ := NewDense(dc, []int{0, 0}, [][]float64{{0.01, 0.02}})
	freeAt := []float64{0, 0}
	// Saturate both cores' quotas.
	for i := 0; i < 4; i++ {
		if core, done, ok := s.ScheduleWith(SoftRatioPolicy{}, workload.Task{Type: 0, Arrival: 0.1, Deadline: 50}, 0.1, freeAt); ok {
			freeAt[core] = done
		}
	}
	task := workload.Task{Type: 0, Arrival: 1, Deadline: 50}
	if _, _, ok := s.ScheduleWith(PaperPolicy{}, task, 1, freeAt); ok {
		t.Fatal("paper policy should drop")
	}
	core, _, ok := s.ScheduleWith(SoftRatioPolicy{}, task, 1, freeAt)
	if !ok {
		t.Fatal("soft policy should fall back instead of dropping")
	}
	// It picks the least-over-quota core: core 1 has double the desired
	// rate, so its ratio is half of core 0's for equal counts.
	if r0, r1 := s.Ratio(0, 0, 1), s.Ratio(0, 1, 1); r1 < r0 && core != 1 {
		t.Errorf("core = %d, want the lower-ratio core 1 (r0=%g r1=%g)", core, r0, r1)
	}
}

func TestSoftRatioAgreesWithPaperWithinQuota(t *testing.T) {
	dc := twoCoreDC()
	a, _ := NewDense(dc, []int{0, 0}, [][]float64{{1, 1}})
	b, _ := NewDense(dc, []int{0, 0}, [][]float64{{1, 1}})
	freeA := []float64{0, 0}
	freeB := []float64{0, 0}
	for i := 0; i < 10; i++ {
		now := float64(i)
		task := workload.Task{Type: 0, Arrival: now, Deadline: now + 5}
		c1, d1, ok1 := a.ScheduleWith(PaperPolicy{}, task, now, freeA)
		c2, d2, ok2 := b.ScheduleWith(SoftRatioPolicy{}, task, now, freeB)
		if !ok1 || !ok2 || c1 != c2 || d1 != d2 {
			t.Fatalf("step %d: paper (%d,%g,%v) vs soft (%d,%g,%v)", i, c1, d1, ok1, c2, d2, ok2)
		}
		freeA[c1], freeB[c2] = d1, d2
	}
}
