package experiments

import (
	"context"
	"fmt"
	"strings"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

// PolicyAblationResult compares second-step scheduling policies on
// identical task streams and first-step assignments: how much of the
// realized reward depends on honoring the Stage-3 desired rates versus
// naive feasible-core choices.
type PolicyAblationResult struct {
	Config  SweepConfig
	Horizon float64
	Names   []string
	// Reward[p] and DropPct[p] summarize each policy across trials.
	Reward  []stats.Summary
	DropPct []stats.Summary
	// Predicted summarizes the Stage-3 prediction for reference.
	Predicted stats.Summary
}

// PolicyAblation runs each policy over the same streams. cfg.Values is
// ignored.
func PolicyAblation(cfg SweepConfig, horizon float64) (*PolicyAblationResult, error) {
	return PolicyAblationContext(context.Background(), cfg, horizon)
}

// PolicyAblationContext is PolicyAblation under a cancelable context.
func PolicyAblationContext(ctx context.Context, cfg SweepConfig, horizon float64) (*PolicyAblationResult, error) {
	if cfg.Trials <= 0 || horizon <= 0 {
		return nil, fmt.Errorf("experiments: need positive Trials and horizon")
	}
	mkPolicies := func(seed int64) []sched.Policy {
		return []sched.Policy{
			sched.PaperPolicy{},
			sched.SoftRatioPolicy{},
			sched.MinCompletionPolicy{},
			&sched.RandomPolicy{Rng: stats.NewRand(seed + 900000)},
			&sched.RoundRobinPolicy{},
		}
	}
	names := []string{}
	for _, p := range mkPolicies(0) {
		names = append(names, p.Name())
	}
	rewards := make([][]float64, len(names))
	drops := make([][]float64, len(names))
	var predicted []float64
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
		ts, err := assign.ThreeStage(sc.DC, sc.Thermal, cfg.Options)
		if err != nil {
			return nil, err
		}
		predicted = append(predicted, ts.RewardRate())
		tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(seed+700000))
		for p, policy := range mkPolicies(seed) {
			out, err := sim.RunOpts(sc.DC, ts.PStates, ts.Stage3.TC, tasks, horizon, sim.Options{Policy: policy})
			if err != nil {
				return nil, fmt.Errorf("policy %s: %w", policy.Name(), err)
			}
			rewards[p] = append(rewards[p], out.WindowRewardRate)
			drops[p] = append(drops[p], 100*float64(out.Dropped)/float64(len(tasks)))
		}
	}
	res := &PolicyAblationResult{Config: cfg, Horizon: horizon, Names: names, Predicted: stats.Summarize(predicted)}
	for p := range names {
		res.Reward = append(res.Reward, stats.Summarize(rewards[p]))
		res.DropPct = append(res.DropPct, stats.Summarize(drops[p]))
	}
	return res, nil
}

// Render prints the policy comparison.
func (r *PolicyAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Second-step policy ablation (%d trials, %d nodes, %d CRACs, %.0f s horizon)\n",
		r.Config.Trials, r.Config.NNodes, r.Config.NCracs, r.Horizon)
	fmt.Fprintf(&b, "Stage-3 predicted reward rate: %s\n\n", r.Predicted)
	fmt.Fprintf(&b, "%-18s %-24s %-18s\n", "policy", "realized reward", "dropped %")
	for p, name := range r.Names {
		fmt.Fprintf(&b, "%-18s %10.2f ± %-10.2f %8.1f ± %-8.1f\n",
			name, r.Reward[p].Mean, r.Reward[p].HalfCI95, r.DropPct[p].Mean, r.DropPct[p].HalfCI95)
	}
	return b.String()
}
