package assign

import (
	"context"
	"math"
	"testing"

	"thermaldc/internal/pwl"
)

func TestDisaggregateNodePowerSumsAndBounds(t *testing.T) {
	env := pwl.MustNew([]float64{0, 0.05, 0.1, 0.15}, []float64{0, 0.5, 0.9, 1.2})
	for _, total := range []float64{0, 0.04, 0.1, 0.2, 0.33, 0.45, 0.6} {
		targets, err := DisaggregateNodePower(env, 4, total)
		if err != nil {
			t.Fatal(err)
		}
		if len(targets) != 4 {
			t.Fatalf("got %d targets", len(targets))
		}
		sum := 0.0
		for _, p := range targets {
			if p < -1e-12 || p > 0.15+1e-12 {
				t.Fatalf("target %g outside [0, 0.15]", p)
			}
			sum += p
		}
		want := math.Min(total, 0.6)
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("total=%g: targets sum to %g, want %g", total, sum, want)
		}
	}
}

func TestDisaggregatePreservesEnvelopeValue(t *testing.T) {
	// The per-core mix must realize the same aggregate reward as the
	// node-level envelope (the aggregation-exactness argument).
	env := pwl.MustNew([]float64{0, 0.1, 0.15}, []float64{0, 0.9, 1.2}) // Figure-5 envelope
	const n = 8
	for _, total := range []float64{0.2, 0.5, 0.8, 1.0, 1.2} {
		targets, err := DisaggregateNodePower(env, n, total)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, p := range targets {
			sum += env.Eval(p)
		}
		want := float64(n) * env.Eval(total/n)
		if math.Abs(sum-want) > 1e-9 {
			t.Fatalf("total=%g: per-core reward %g, envelope %g", total, sum, want)
		}
	}
}

func TestDisaggregatePaperTwoCoreExample(t *testing.T) {
	// The paper's example: 2 cores, 0.1 W total on the Figure-5 envelope
	// → one core at 0.1 W (P-state 1) and one at 0 W (off), reward 0.45·2.
	env := pwl.MustNew([]float64{0, 0.1, 0.15}, []float64{0, 0.9, 1.2})
	targets, err := DisaggregateNodePower(env, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	hi, lo := math.Max(targets[0], targets[1]), math.Min(targets[0], targets[1])
	if math.Abs(hi-0.1) > 1e-9 || math.Abs(lo-0) > 1e-9 {
		t.Fatalf("targets = %v, want {0.1, 0}", targets)
	}
}

func TestDisaggregateBadInputsReturnError(t *testing.T) {
	env := pwl.MustNew([]float64{0, 1}, []float64{0, 1})
	if _, err := DisaggregateNodePower(env, 0, 0.5); err == nil {
		t.Fatal("expected error for zero cores")
	}
	if _, err := DisaggregateNodePower(env, -3, 0.5); err == nil {
		t.Fatal("expected error for negative cores")
	}
	if _, err := DisaggregateNodePower(env, 2, math.NaN()); err == nil {
		t.Fatal("expected error for NaN total")
	}
	if _, err := DisaggregateNodePower(env, 2, math.Inf(1)); err == nil {
		t.Fatal("expected error for +Inf total")
	}
}

func TestStage2NodeRoundsUpThenTrims(t *testing.T) {
	dc := figureExampleDC(100)
	nt := &dc.NodeTypes[0] // 2 cores, powers 0.15/0.1/0.05/off, base 0.1
	// Targets exactly at P-state powers map to those P-states when the
	// budget allows.
	ps, err := Stage2Node(nt, []float64{0.1, 0}, 0.1+0.1)
	if err != nil {
		t.Fatal(err)
	}
	if ps[0] != 1 || ps[1] != 3 {
		t.Errorf("P-states = %v, want [1 3]", ps)
	}
	// A target between P-states rounds up (more power), then step 2 trims
	// back within the budget: target 0.07 rounds to P-state 1 (0.1 W), but
	// budget base+0.07 forces it down to P-state 2 (0.05 W).
	ps, err = Stage2Node(nt, []float64{0.07, 0}, 0.1+0.07)
	if err != nil {
		t.Fatal(err)
	}
	if ps[0] != 2 || ps[1] != 3 {
		t.Errorf("P-states = %v, want [2 3]", ps)
	}
}

func TestStage2NodeBudgetAlwaysRespected(t *testing.T) {
	dc := figureExampleDC(100)
	nt := &dc.NodeTypes[0]
	powers := nt.CorePowers()
	for _, budget := range []float64{0.1, 0.15, 0.2, 0.25, 0.3, 0.4} {
		for _, targets := range [][]float64{
			{0.15, 0.15}, {0.12, 0.03}, {0.05, 0.05}, {0, 0},
		} {
			ps, err := Stage2Node(nt, targets, budget)
			if err != nil {
				t.Fatal(err)
			}
			total := nt.BasePower
			for _, k := range ps {
				total += powers[k]
			}
			if total > budget+1e-9 && total > nt.BasePower+1e-12 {
				t.Fatalf("budget %g, targets %v: node power %g exceeds budget", budget, targets, total)
			}
		}
	}
}

func TestStage2NodeAllOffWhenBudgetIsBase(t *testing.T) {
	dc := figureExampleDC(100)
	nt := &dc.NodeTypes[0]
	ps, err := Stage2Node(nt, []float64{0.15, 0.15}, nt.BasePower)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range ps {
		if k != nt.OffState() {
			t.Fatalf("P-states = %v, want all off", ps)
		}
	}
}

func TestStage2NodeWrongTargetsReturnError(t *testing.T) {
	dc := figureExampleDC(100)
	if _, err := Stage2Node(&dc.NodeTypes[0], []float64{0.1}, 1); err == nil {
		t.Fatal("expected error for mismatched target count")
	}
}

func TestNodePowersFromPStates(t *testing.T) {
	dc := figureExampleDC(100)
	got := NodePowersFromPStates(dc, []int{0, 2})
	want := 0.1 + 0.15 + 0.05
	if math.Abs(got[0]-want) > 1e-12 {
		t.Errorf("node power = %g, want %g", got[0], want)
	}
}

func TestStage3SingleCoreKnownOptimum(t *testing.T) {
	// One node, 2 cores at P-state 0 (ECS 1.2), one task type with reward
	// 1 and λ = 10: cores saturate at rate 1.2 each → reward rate 2.4.
	dc := figureExampleDC(100)
	res, err := NewStage3Solver(dc).Solve(context.Background(), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RewardRate-2.4) > 1e-9 {
		t.Errorf("reward rate = %g, want 2.4", res.RewardRate)
	}
	for k := 0; k < 2; k++ {
		if math.Abs(res.Rate(0, k)-1.2) > 1e-9 {
			t.Errorf("Rate(0, %d) = %g, want 1.2", k, res.Rate(0, k))
		}
		if math.Abs(res.Util(k)-1) > 1e-9 {
			t.Errorf("Util(%d) = %g, want 1", k, res.Util(k))
		}
	}
}

func TestStage3ArrivalRateBinds(t *testing.T) {
	// λ = 1 < capacity 2.4: reward rate capped at 1·r = 1.
	dc := figureExampleDC(100)
	dc.TaskTypes[0].ArrivalRate = 1
	res, err := NewStage3Solver(dc).Solve(context.Background(), []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RewardRate-1) > 1e-9 {
		t.Errorf("reward rate = %g, want 1", res.RewardRate)
	}
}

func TestStage3OffCoresProduceNothing(t *testing.T) {
	dc := figureExampleDC(100)
	res, err := NewStage3Solver(dc).Solve(context.Background(), []int{3, 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.RewardRate != 0 {
		t.Errorf("reward rate = %g, want 0", res.RewardRate)
	}
}

func TestStage3DeadlineInfeasiblePStateExcluded(t *testing.T) {
	// m = 1.5: P-state 2 (ECS 0.5 → exec time 2) must get TC = 0.
	dc := figureExampleDC(1.5)
	res, err := NewStage3Solver(dc).Solve(context.Background(), []int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.RewardRate != 0 {
		t.Errorf("reward rate = %g, want 0 (deadline-infeasible P-state)", res.RewardRate)
	}
	// P-state 1 (exec time 1/0.9 ≈ 1.11 < 1.5) is fine.
	res, err = NewStage3Solver(dc).Solve(context.Background(), []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RewardRate-1.8) > 1e-9 {
		t.Errorf("reward rate = %g, want 1.8", res.RewardRate)
	}
}

func TestStage3MixedPStatesGrouping(t *testing.T) {
	// Cores at different P-states end up in different groups with the
	// right capacities: one at P0 (1.2) + one at P1 (0.9) → 2.1 total.
	dc := figureExampleDC(100)
	res, err := NewStage3Solver(dc).Solve(context.Background(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.RewardRate-2.1) > 1e-9 {
		t.Errorf("reward rate = %g, want 2.1", res.RewardRate)
	}
	if math.Abs(res.Rate(0, 0)-1.2) > 1e-9 || math.Abs(res.Rate(0, 1)-0.9) > 1e-9 {
		t.Errorf("TC = %v", res.Dense()[0])
	}
}

func TestStage3RewardMatchesTC(t *testing.T) {
	dc := figureExampleDC(100)
	dc.TaskTypes[0].ArrivalRate = 1.7
	res, err := NewStage3Solver(dc).Solve(context.Background(), []int{0, 1})
	if err != nil {
		t.Fatal(err)
	}
	sum := 0.0
	for i, row := range res.Dense() {
		for _, tc := range row {
			sum += dc.TaskTypes[i].Reward * tc
		}
	}
	if math.Abs(sum-res.RewardRate) > 1e-9 {
		t.Errorf("recomputed reward %g != reported %g", sum, res.RewardRate)
	}
}

func TestStage3WrongPStateCount(t *testing.T) {
	dc := figureExampleDC(100)
	if _, err := NewStage3Solver(dc).Solve(context.Background(), []int{0}); err == nil {
		t.Fatal("expected error for wrong P-state slice length")
	}
}

func TestStrategyString(t *testing.T) {
	if CoarseToFine.String() != "coarse-to-fine" || FullGrid.String() != "full-grid" ||
		CoordDescent.String() != "coordinate-descent" {
		t.Error("strategy strings wrong")
	}
}
