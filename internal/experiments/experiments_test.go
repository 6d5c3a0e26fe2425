package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"thermaldc/internal/assign"
)

// reducedFig6 returns a small, fast Figure-6 configuration.
func reducedFig6() Fig6Config {
	cfg := DefaultFig6Config()
	cfg.Trials = 2
	cfg.NCracs = 2
	cfg.NNodes = 10
	return cfg
}

// TestFigure6BestDominatesEachPsi is a metamorphic check of Figure 6's
// third bar: on every trial, the best-ψ improvement is at least the
// improvement at ψ = 25 and at ψ = 50, exactly (the improvement is
// monotone in the reward, and rounding keeps it so), and it is attained
// by one of them. Pointwise dominance carries to each group's mean.
func TestFigure6BestDominatesEachPsi(t *testing.T) {
	cfg := reducedFig6()
	cfg.Psis = []float64{25, 50}
	res, err := Figure6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range res.Groups {
		for _, tr := range g.Trials {
			attained := false
			for p, imp := range tr.ImprovementByPsi {
				if tr.BestImprovement < imp {
					t.Errorf("%s seed %d: best %v < ψ=%g improvement %v",
						g.Group.Label(), tr.Seed, tr.BestImprovement, cfg.Psis[p], imp)
				}
				attained = attained || tr.BestImprovement == imp
			}
			if !attained {
				t.Errorf("%s seed %d: best %v is none of the ψ improvements %v",
					g.Group.Label(), tr.Seed, tr.BestImprovement, tr.ImprovementByPsi)
			}
		}
		for p, s := range g.PsiSummaries {
			if g.BestSummary.Mean < s.Mean {
				t.Errorf("%s: mean best %v < mean ψ=%g improvement %v",
					g.Group.Label(), g.BestSummary.Mean, cfg.Psis[p], s.Mean)
			}
		}
	}
}

func TestFigure6ReducedScale(t *testing.T) {
	cfg := reducedFig6()
	res, err := Figure6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Groups) != 3 {
		t.Fatalf("got %d groups, want 3", len(res.Groups))
	}
	for _, g := range res.Groups {
		if len(g.Trials) != cfg.Trials {
			t.Fatalf("group %s has %d trials, want %d", g.Group.Label(), len(g.Trials), cfg.Trials)
		}
		if len(g.PsiSummaries) != len(cfg.Psis) {
			t.Fatalf("group %s has %d ψ summaries", g.Group.Label(), len(g.PsiSummaries))
		}
		for _, tr := range g.Trials {
			if tr.BaselineReward <= 0 {
				t.Error("baseline reward should be positive")
			}
			// Best-of improvement dominates the individual ψ improvements.
			for p, imp := range tr.ImprovementByPsi {
				if tr.BestImprovement < imp-1e-9 {
					t.Errorf("best %g < ψ[%d] improvement %g", tr.BestImprovement, p, imp)
				}
			}
			if tr.BestImprovement < 0 {
				t.Logf("note: seed %d best improvement %.2f%% (negative trials can occur)", tr.Seed, tr.BestImprovement)
			}
		}
	}
	// Rendering mentions each group and draws CI values.
	out := res.Render()
	for _, g := range res.Groups {
		if !strings.Contains(out, g.Group.Label()) {
			t.Errorf("render missing group %q", g.Group.Label())
		}
	}
	if !strings.Contains(out, "ψ=25") || !strings.Contains(out, "best") {
		t.Error("render missing cells")
	}
}

func TestFigure6Deterministic(t *testing.T) {
	cfg := reducedFig6()
	cfg.Trials = 1
	cfg.Groups = []Fig6Group{{StaticShare: 0.3, Vprop: 0.1}}
	a, err := Figure6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.Groups[0].BestSummary.Mean != b.Groups[0].BestSummary.Mean {
		t.Error("Figure6 not deterministic across runs")
	}
}

func TestFigure6Validation(t *testing.T) {
	cfg := reducedFig6()
	cfg.Trials = 0
	if _, err := Figure6(context.Background(), cfg, nil); err == nil {
		t.Error("Trials=0 accepted")
	}
	cfg = reducedFig6()
	cfg.Psis = nil
	if _, err := Figure6(context.Background(), cfg, nil); err == nil {
		t.Error("empty Psis accepted")
	}
}

func TestTable1(t *testing.T) {
	out := Table1(0.3)
	for _, want := range []string{
		"HP ProLiant DL785 G5", "NEC Express5800/A1080a-S",
		"0.353", "0.418", "2500", "2666", "0.01375", "0.01625",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Table1 missing %q", want)
		}
	}
	// P-state powers decrease down the table for both shares.
	if !strings.Contains(Table1(0.2), "static share 20%") {
		t.Error("Table1 should echo the static share")
	}
}

func TestTable2(t *testing.T) {
	out := Table2()
	for _, want := range []string{"A", "E", "30–40", "80–90", "40–80"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table2 missing %q", want)
		}
	}
}

func TestFigures345(t *testing.T) {
	series, err := Figures345()
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 3 {
		t.Fatalf("got %d series", len(series))
	}
	fig3, fig4, fig5 := series[0].Func, series[1].Func, series[2].Func
	if math.Abs(fig3.Eval(0.15)-1.2) > 1e-12 || math.Abs(fig3.Eval(0.05)-0.5) > 1e-12 {
		t.Error("Figure 3 values wrong")
	}
	if math.Abs(fig4.Eval(0.05)) > 1e-12 {
		t.Error("Figure 4 should zero P-state 2")
	}
	if math.Abs(fig5.Eval(0.05)-0.45) > 1e-12 {
		t.Error("Figure 5 envelope wrong")
	}
	out := RenderFig345(series)
	if !strings.Contains(out, "Figure 3") || !strings.Contains(out, "breakpoints") {
		t.Error("render incomplete")
	}
}

func smallSweep(values []float64) SweepConfig {
	cfg := DefaultSweepConfig(values)
	cfg.Trials = 2
	cfg.NCracs = 2
	cfg.NNodes = 10
	return cfg
}

func TestPowerCapSweepShape(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := Sweep(context.Background(), "powercap", smallSweep([]float64{0.3, 0.9}))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("got %d points", len(res.Points))
	}
	// More power → more reward for both techniques.
	if res.Points[1].Baseline.Mean <= res.Points[0].Baseline.Mean {
		t.Error("baseline reward should grow with the power cap")
	}
	if res.Points[1].ThreeStage.Mean <= res.Points[0].ThreeStage.Mean {
		t.Error("three-stage reward should grow with the power cap")
	}
	if !strings.Contains(res.Render(), "Pconst fraction") {
		t.Error("render missing x label")
	}
}

func TestPsiSweepRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("sweep in -short mode")
	}
	res, err := Sweep(context.Background(), "psi", smallSweep([]float64{25, 50, 100}))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Points {
		if p.ThreeStage.Mean <= 0 {
			t.Errorf("ψ=%g: non-positive reward", p.X)
		}
	}
}

func TestStrategyAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation in -short mode")
	}
	cfg := smallSweep(nil)
	res, err := StrategyAblation(context.Background(), cfg, []assign.Strategy{assign.CoarseToFine, assign.CoordDescent})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reward) != 2 {
		t.Fatalf("got %d strategies", len(res.Reward))
	}
	if !strings.Contains(res.Render(), "coarse-to-fine") {
		t.Error("render missing strategy name")
	}
	for s := range res.Reward {
		if res.Solved[s].Mean <= 0 || res.Solved[s].Mean > res.Evals[s].Mean {
			t.Errorf("strategy %d: %g LP solves for %g candidates visited", s, res.Solved[s].Mean, res.Evals[s].Mean)
		}
	}
}

func TestSchedulerValidation(t *testing.T) {
	if testing.Short() {
		t.Skip("validation in -short mode")
	}
	cfg := smallSweep(nil)
	res, err := SchedulerValidation(context.Background(), cfg, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res.RatePct.Mean < 50 || res.RatePct.Mean > 130 {
		t.Errorf("realized/predicted = %.1f%%, expected near 100%%", res.RatePct.Mean)
	}
	if !strings.Contains(res.Render(), "Realized / predicted") {
		t.Error("render incomplete")
	}
}

func TestFigure6WithSimulation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulated fig6 in -short mode")
	}
	cfg := reducedFig6()
	cfg.Trials = 1
	cfg.Groups = []Fig6Group{{StaticShare: 0.3, Vprop: 0.1}}
	cfg.SimHorizon = 20
	res, err := Figure6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Groups[0].Trials[0]
	if tr.RealizedBaseline <= 0 || tr.RealizedThreeStage <= 0 {
		t.Fatalf("realized rates not populated: %+v", tr)
	}
	out := res.Render()
	if !strings.Contains(out, "admitted") || !strings.Contains(out, "completed-in-window") {
		t.Error("render missing simulation rows")
	}
}
