package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
)

func smallDynamic(seed int64) DynamicConfig {
	cfg := DefaultDynamicConfig(seed)
	cfg.NNodes = 10
	cfg.Horizon = 60
	cfg.Epoch = 15
	cfg.Period = 60
	return cfg
}

func TestDynamicReassignmentRuns(t *testing.T) {
	res, err := DynamicReassignment(context.Background(), smallDynamic(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks == 0 {
		t.Fatal("no tasks generated")
	}
	if res.StaticReward <= 0 || res.AdaptiveReward <= 0 {
		t.Fatal("rewards should be positive")
	}
	if res.Reassignments != 4 {
		t.Errorf("reassignments = %d, want 4 (60/15)", res.Reassignments)
	}
	out := res.Render()
	for _, want := range []string{"static assignment", "epoch reassignment", "gain"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q", want)
		}
	}
}

func TestDynamicReassignmentValidation(t *testing.T) {
	cfg := smallDynamic(1)
	cfg.Epoch = 0
	if _, err := DynamicReassignment(context.Background(), cfg); err == nil {
		t.Error("zero epoch accepted")
	}
	cfg = smallDynamic(1)
	cfg.Horizon = -1
	if _, err := DynamicReassignment(context.Background(), cfg); err == nil {
		t.Error("negative horizon accepted")
	}
}

func TestDynamicAdaptiveHelpsUnderDriftOnAverage(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed drift experiment in -short mode")
	}
	sum := 0.0
	const trials = 3
	for seed := int64(1); seed <= trials; seed++ {
		res, err := DynamicReassignment(context.Background(), smallDynamic(seed))
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("seed %d: static %.1f, adaptive %.1f (%+.2f%%)", seed, res.StaticReward, res.AdaptiveReward, res.GainPct)
		sum += res.GainPct
	}
	if sum/trials < -1 {
		t.Errorf("adaptive reassignment loses %.2f%% on average under heavy drift", sum/trials)
	}
}

func TestInstantAndMeanRatesConsistent(t *testing.T) {
	cfg := smallDynamic(1)
	// The mean over a full period equals the base rate.
	got := meanRateOver(10, 2, 8, &cfg, 0, cfg.Period)
	if math.Abs(got-10) > 1e-9 {
		t.Errorf("full-period mean = %g, want 10", got)
	}
	// The mean over a short window approximates the instantaneous rate.
	mid := 17.3
	inst := instantRate(10, 2, 8, &cfg, mid)
	short := meanRateOver(10, 2, 8, &cfg, mid-0.01, mid+0.01)
	if math.Abs(inst-short) > 1e-3 {
		t.Errorf("short-window mean %g vs instantaneous %g", short, inst)
	}
	// Numerical cross-check of the analytic integral.
	a, b := 3.0, 21.0
	sum := 0.0
	const n = 20000
	for i := 0; i < n; i++ {
		sum += instantRate(10, 2, 8, &cfg, a+(b-a)*(float64(i)+0.5)/n)
	}
	numeric := sum / n
	analytic := meanRateOver(10, 2, 8, &cfg, a, b)
	if math.Abs(numeric-analytic) > 1e-3 {
		t.Errorf("numeric %g vs analytic %g", numeric, analytic)
	}
}

func TestPolicyAblationReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("policy ablation in -short mode")
	}
	cfg := smallSweep(nil)
	res, err := PolicyAblation(context.Background(), cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Names) != 5 {
		t.Fatalf("got %d policies", len(res.Names))
	}
	paperIdx := -1
	for i, n := range res.Names {
		if n == "paper-min-ratio" {
			paperIdx = i
		}
		if res.Reward[i].Mean <= 0 {
			t.Errorf("policy %s: non-positive reward", n)
		}
	}
	if paperIdx < 0 {
		t.Fatal("paper policy missing")
	}
	t.Log("\n" + res.Render())
	if !strings.Contains(res.Render(), "round-robin") {
		t.Error("render missing policies")
	}
}

func TestPolicyAblationValidation(t *testing.T) {
	cfg := smallSweep(nil)
	cfg.Trials = 0
	if _, err := PolicyAblation(context.Background(), cfg, 30); err == nil {
		t.Error("Trials=0 accepted")
	}
	cfg = smallSweep(nil)
	if _, err := PolicyAblation(context.Background(), cfg, 0); err == nil {
		t.Error("horizon=0 accepted")
	}
}

func TestGenerateDriftingTasksSorted(t *testing.T) {
	cfg := smallDynamic(2)
	scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, cfg.Seed)
	scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
	sc, err := scenario.Build(scCfg)
	if err != nil {
		t.Fatal(err)
	}
	tasks := generateDriftingTasks(sc.DC, &cfg, stats.NewRand(1))
	for i := 1; i < len(tasks); i++ {
		if tasks[i].Arrival < tasks[i-1].Arrival {
			t.Fatal("tasks not sorted")
		}
	}
	for _, task := range tasks {
		want := task.Arrival + sc.DC.TaskTypes[task.Type].RelDeadline
		if math.Abs(task.Deadline-want) > 1e-12 {
			t.Fatal("deadline inconsistent")
		}
	}
}

func TestTechniqueComparisonReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison in -short mode")
	}
	cfg := smallSweep(nil)
	res, err := TechniqueComparison(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Naive.Mean <= 0 || res.Baseline.Mean <= 0 || res.ThreeStage.Mean <= 0 {
		t.Fatal("all techniques should earn reward")
	}
	if res.ThreeStage.Mean < res.Naive.Mean {
		t.Errorf("three-stage (%g) below naive clamp (%g) on average", res.ThreeStage.Mean, res.Naive.Mean)
	}
	if !strings.Contains(res.Render(), "naive ondemand") {
		t.Error("render incomplete")
	}
}

func TestTechniqueComparisonValidation(t *testing.T) {
	cfg := smallSweep(nil)
	cfg.Trials = 0
	if _, err := TechniqueComparison(context.Background(), cfg); err == nil {
		t.Error("Trials=0 accepted")
	}
}

func TestBurstinessSweepReducedScale(t *testing.T) {
	if testing.Short() {
		t.Skip("burstiness sweep in -short mode")
	}
	cfg := smallSweep([]float64{0, 0.8})
	res, err := BurstinessSweep(context.Background(), cfg, 20)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PaperRatePct) != 2 || len(res.SoftRatePct) != 2 {
		t.Fatalf("unexpected point counts")
	}
	for i := range res.Bursts {
		if res.PaperRatePct[i].Mean <= 0 || res.SoftRatePct[i].Mean <= 0 {
			t.Error("rates should be positive")
		}
		// The soft policy never drops more than the paper policy on the
		// same stream (it only ever converts drops into assignments).
		if res.SoftDropPct[i].Mean > res.PaperDropPct[i].Mean+1e-9 {
			t.Errorf("burst %g: soft drops %g%% > paper drops %g%%",
				res.Bursts[i], res.SoftDropPct[i].Mean, res.PaperDropPct[i].Mean)
		}
	}
	if !strings.Contains(res.Render(), "burst") {
		t.Error("render incomplete")
	}
}

func TestBurstinessSweepValidation(t *testing.T) {
	cfg := smallSweep(nil)
	if _, err := BurstinessSweep(context.Background(), cfg, 20); err == nil {
		t.Error("empty values accepted")
	}
}

func TestHeterogeneitySweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := Sweep(context.Background(), "hetero", smallSweep([]float64{0.02, 0.98}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.ThreeStage.Mean <= 0 {
			t.Errorf("x=%g: non-positive reward", p.X)
		}
	}
	// x ≈ 0 → nearly all NEC (faster fleet) earns more than all-HP.
	if res.Points[0].ThreeStage.Mean <= res.Points[1].ThreeStage.Mean {
		t.Error("all-NEC fleet should outperform all-HP fleet")
	}
}

func TestDynamicTransientSafety(t *testing.T) {
	res, err := DynamicReassignment(context.Background(), smallDynamic(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.MinTransientSlack < -1e-6 {
		t.Errorf("transient redline violation: slack %g °C", res.MinTransientSlack)
	}
	if !strings.Contains(res.Render(), "transient slack") {
		t.Error("render missing transient slack")
	}
}
