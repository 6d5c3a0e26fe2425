package assign_test

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/thermal"
)

// denseCopy returns r with Stage 3 as a dense TC copy only.
func denseCopy(r *assign.ThreeStageResult) *assign.ThreeStageResult {
	c := *r
	c.Stage3 = &assign.Stage3Result{TC: r.Stage3.Dense(), RewardRate: r.Stage3.RewardRate}
	return &c
}

// cloneGrouped deep-copies the parts of a grouped plan Verify reads.
func cloneGrouped(r *assign.ThreeStageResult) *assign.ThreeStageResult {
	c := *r
	c.PStates = append([]int(nil), r.PStates...)
	s3 := *r.Stage3
	s3.CoreGroup = append([]int32(nil), r.Stage3.CoreGroup...)
	s3.GroupRate = append([]float64(nil), r.Stage3.GroupRate...)
	c.Stage3 = &s3
	return &c
}

// sameGroupedDense requires Verify to return the same violations, Amount
// bits included, on the grouped plan r and on its dense copy.
func sameGroupedDense(t *testing.T, name string, dc *model.DataCenter, tm *thermal.Model, r *assign.ThreeStageResult) []assign.Violation {
	t.Helper()
	got := assign.Verify(dc, tm, r, 1e-6)
	want := assign.Verify(dc, tm, denseCopy(r), 1e-6)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: grouped Verify = %v\ndense Verify   = %v", name, got, want)
	}
	for i := range got {
		if !bitsEq(got[i].Amount, want[i].Amount) {
			t.Fatalf("%s: violation %d amount %v, dense %v", name, i, got[i].Amount, want[i].Amount)
		}
	}
	return got
}

// activeRate returns a (core, task) pair whose rate is positive.
func activeRate(t *testing.T, rng *rand.Rand, r *assign.ThreeStageResult, ntasks int) (int, int) {
	t.Helper()
	ncores := len(r.PStates)
	for range 10 * ncores * ntasks {
		k, i := rng.Intn(ncores), rng.Intn(ntasks)
		if r.Stage3.Rate(i, k) > 0 {
			return k, i
		}
	}
	t.Fatal("plan has no positive rate")
	return 0, 0
}

// TestVerifyGroupedMatchesDense holds Verify's grouped read of a plan to
// its read of the same plan as a dense TC (Stage3Result.Dense), on valid
// plans and on grouped plans broken four ways: a P-state out of range, a
// group rate pushing its cores over full utilization, task rates over λ,
// and a core moved to a deadline-infeasible P-state under its old group.
// Two more mutations check the grouped pass's handling of rates ≤ 0: a
// negative group rate (added to its task's arrival sum, which a negative
// λ reports) and −0 group rates (left out of the sums).
func TestVerifyGroupedMatchesDense(t *testing.T) {
	seen := map[string]bool{}
	for seed := int64(61); seed < 64; seed++ {
		sc := smallScenario(t, seed)
		dc, tm := sc.DC, sc.Thermal
		base, err := assign.ThreeStage(dc, tm, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if base.Stage3.CoreGroup == nil {
			t.Fatal("solver plan is not grouped")
		}
		if vs := sameGroupedDense(t, "valid", dc, tm, base); len(vs) != 0 {
			t.Fatalf("seed %d: valid plan has violations %v", seed, vs)
		}
		rng := rand.New(rand.NewSource(seed))
		ntasks := dc.T()
		for trial := 0; trial < 30; trial++ {
			d := *dc
			d.TaskTypes = append([]model.TaskType(nil), dc.TaskTypes...)
			r := cloneGrouped(base)
			switch trial % 6 {
			case 0: // P-state out of range
				k := rng.Intn(len(r.PStates))
				r.PStates[k] = []int{-1, d.NodeType(d.CoreNode(k)).OffState() + 1}[rng.Intn(2)]
			case 1: // a group rate over its cores' capacity
				k, i := activeRate(t, rng, r, ntasks)
				g := int(r.Stage3.CoreGroup[k])
				r.Stage3.GroupRate[g*ntasks+i] *= 2 + 10*rng.Float64()
			case 2: // more work than arrives
				i := rng.Intn(ntasks)
				d.TaskTypes[i].ArrivalRate *= 0.5 * rng.Float64()
			case 3: // a slower P-state the task's deadline rules out
				moved := false
				for try := 0; !moved; try++ {
					if try == 1000 {
						t.Fatal("no active core has a slower P-state")
					}
					k, i := activeRate(t, rng, r, ntasks)
					typ, ps := d.Nodes[d.CoreNode(k)].Type, r.PStates[k]
					if slow := ps + 1; slow < d.NodeTypes[typ].OffState() {
						// A deadline between the two execution times.
						fast, slowExec := 1/d.ECS[i][typ][ps], 1/d.ECS[i][typ][slow]
						d.TaskTypes[i].RelDeadline = (fast + slowExec) / 2
						r.PStates[k], moved = slow, true
					}
				}
			case 4: // a negative group rate, its task's sum reported
				k, i := activeRate(t, rng, r, ntasks)
				g := int(r.Stage3.CoreGroup[k])
				r.Stage3.GroupRate[g*ntasks+i] = -r.Stage3.GroupRate[g*ntasks+i]
				d.TaskTypes[i].ArrivalRate = -1 // any sum is over λ, by sum + 1
			case 5: // −0 group rates
				for g := range r.Stage3.GroupRate {
					if r.Stage3.GroupRate[g] == 0 {
						r.Stage3.GroupRate[g] = math.Copysign(0, -1)
					}
				}
			}
			for _, v := range sameGroupedDense(t, "mutated", &d, tm, r) {
				seen[v.Constraint] = true
			}
		}
	}
	for _, kind := range []string{"pstate-range", "utilization", "arrival", "deadline"} {
		if !seen[kind] {
			t.Errorf("no mutated plan produced a %q violation", kind)
		}
	}
}

// FuzzPipelineSmallDC runs the whole first step on small generated data
// centers (2–8 nodes, 1–2 CRACs, a fuzzed power cap and ψ): each run must
// either return a plan that passes Verify, whose Dense agrees with Rate,
// or fail with a solvererr.SolveError. It must never panic.
func FuzzPipelineSmallDC(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(1), uint8(120), uint8(50))
	f.Add(int64(7), uint8(6), uint8(0), uint8(20), uint8(25))
	f.Add(int64(-3), uint8(0), uint8(1), uint8(255), uint8(99))
	f.Add(int64(42), uint8(2), uint8(0), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, seed int64, nodes, cracs, capRaw, psiRaw uint8) {
		cfg := scenario.Default(0.3, 0.1, seed)
		cfg.NNodes = 2 + int(nodes)%7
		cfg.NCracs = 1 + int(cracs)%2
		// Pconst from 10% of the power range below Pmin to 17.5% above
		// Pmax (a fraction of exactly 0 selects the 0.5 default).
		cfg.PconstFraction = float64(capRaw)/200 - 0.1
		sc, err := scenario.Build(cfg)
		if err != nil {
			return // not a first-step input
		}
		opts := assign.DefaultOptions()
		opts.Psi = 1 + float64(psiRaw%100)
		ts, err := assign.NewThreeStageSolver(sc.DC, sc.Thermal, opts)
		if err != nil {
			t.Fatalf("NewThreeStageSolver: %v", err)
		}
		plan, err := ts.Solve()
		if err != nil {
			var se *solvererr.SolveError
			if !errors.As(err, &se) {
				t.Fatalf("untyped solve error %T: %v", err, err)
			}
			return
		}
		if vs := assign.Verify(sc.DC, sc.Thermal, plan, 1e-6); len(vs) != 0 {
			t.Fatalf("plan fails Verify (Stage 1 feasible %v): %v", plan.Stage1.Feasible, vs)
		}
		dense := plan.Stage3.Dense()
		if len(dense) != sc.DC.T() {
			t.Fatalf("Dense has %d rows, want %d", len(dense), sc.DC.T())
		}
		for i, row := range dense {
			if len(row) != sc.DC.NumCores() {
				t.Fatalf("Dense row %d has %d cores, want %d", i, len(row), sc.DC.NumCores())
			}
			for k, x := range row {
				if !bitsEq(x, plan.Stage3.Rate(i, k)) {
					t.Fatalf("Dense()[%d][%d] = %v, Rate = %v", i, k, x, plan.Stage3.Rate(i, k))
				}
			}
		}
	})
}
