package experiments

import (
	"context"
	"fmt"
	"strings"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
)

// ComparisonResult pits three P-state techniques against each other on the
// same scenarios:
//
//  1. the naive server-level "ondemand-style" clamp (all P0, turn cores
//     off blindly until feasible) — what the paper's introduction says is
//     done in practice and fails under a power cap;
//  2. the Equation-21 baseline (P0-or-off, reward-aware fractions);
//  3. the paper's three-stage assignment.
//
// All three use the same Stage-3 rate LP, so differences isolate the
// P-state/temperature decision.
type ComparisonResult struct {
	Config SweepConfig
	// Naive, Baseline, ThreeStage summarize absolute reward rates.
	Naive, Baseline, ThreeStage stats.Summary
	// BaselineOverNaive and ThreeStageOverBaseline are % improvements.
	BaselineOverNaive      stats.Summary
	ThreeStageOverBaseline stats.Summary
}

// TechniqueComparison runs the three techniques; canceling ctx stops it
// between trials. cfg.Values is ignored.
func TechniqueComparison(ctx context.Context, cfg SweepConfig) (*ComparisonResult, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: Trials must be positive")
	}
	var naive, base, three, bOverN, tOverB []float64
	for t := 0; t < cfg.Trials; t++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		seed := cfg.BaseSeed + int64(t)
		scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, seed)
		scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
		sc, err := scenario.Build(scCfg)
		if err != nil {
			return nil, err
		}
		nv, err := assign.NaiveOndemand(sc.DC, sc.Thermal, cfg.Options.Search)
		if err != nil {
			return nil, fmt.Errorf("naive: %w", err)
		}
		bl, err := assign.Baseline(sc.DC, sc.Thermal, cfg.Options)
		if err != nil {
			return nil, fmt.Errorf("baseline: %w", err)
		}
		ts, err := assign.ThreeStage(sc.DC, sc.Thermal, cfg.Options)
		if err != nil {
			return nil, fmt.Errorf("three-stage: %w", err)
		}
		naive = append(naive, nv.Stage3.RewardRate)
		base = append(base, bl.RewardRate)
		three = append(three, ts.RewardRate())
		bOverN = append(bOverN, 100*(bl.RewardRate-nv.Stage3.RewardRate)/nv.Stage3.RewardRate)
		tOverB = append(tOverB, 100*(ts.RewardRate()-bl.RewardRate)/bl.RewardRate)
	}
	return &ComparisonResult{
		Config:                 cfg,
		Naive:                  stats.Summarize(naive),
		Baseline:               stats.Summarize(base),
		ThreeStage:             stats.Summarize(three),
		BaselineOverNaive:      stats.Summarize(bOverN),
		ThreeStageOverBaseline: stats.Summarize(tOverB),
	}, nil
}

// Render prints the three-way comparison.
func (r *ComparisonResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Technique comparison (%d trials, %d nodes, %d CRACs)\n\n",
		r.Config.Trials, r.Config.NNodes, r.Config.NCracs)
	fmt.Fprintf(&b, "%-34s %s\n", "naive ondemand clamp (all P0):", r.Naive)
	fmt.Fprintf(&b, "%-34s %s\n", "Equation-21 baseline:", r.Baseline)
	fmt.Fprintf(&b, "%-34s %s\n\n", "three-stage (paper):", r.ThreeStage)
	fmt.Fprintf(&b, "Eq. 21 over naive     : %+.2f%% ± %.2f\n", r.BaselineOverNaive.Mean, r.BaselineOverNaive.HalfCI95)
	fmt.Fprintf(&b, "three-stage over Eq.21: %+.2f%% ± %.2f\n", r.ThreeStageOverBaseline.Mean, r.ThreeStageOverBaseline.HalfCI95)
	return b.String()
}
