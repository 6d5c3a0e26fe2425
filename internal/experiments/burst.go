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

// BurstinessResult measures how arrival burstiness degrades the
// second-step scheduler relative to the Stage-3 steady-state prediction,
// for both the paper's policy and our soft variant.
type BurstinessResult struct {
	Config  SweepConfig
	Horizon float64
	// Bursts lists the swept burst factors (Config.Values).
	Bursts []float64
	// PaperRatePct[b] / SoftRatePct[b]: realized/predicted reward (%).
	PaperRatePct []stats.Summary
	SoftRatePct  []stats.Summary
	// PaperDropPct[b] / SoftDropPct[b]: dropped-task percentages.
	PaperDropPct []stats.Summary
	SoftDropPct  []stats.Summary
}

// BurstinessSweep sweeps the MMPP burst factor (cfg.Values; 0 = plain
// Poisson) and simulates both scheduling policies on identical streams.
func BurstinessSweep(cfg SweepConfig, horizon float64) (*BurstinessResult, error) {
	return BurstinessSweepContext(context.Background(), cfg, horizon)
}

// BurstinessSweepContext is BurstinessSweep under a cancelable context.
func BurstinessSweepContext(ctx context.Context, cfg SweepConfig, horizon float64) (*BurstinessResult, error) {
	if cfg.Trials <= 0 || len(cfg.Values) == 0 || horizon <= 0 {
		return nil, fmt.Errorf("experiments: burstiness sweep needs Trials, Values and a horizon")
	}
	res := &BurstinessResult{Config: cfg, Horizon: horizon, Bursts: cfg.Values}
	paperRate := make([][]float64, len(cfg.Values))
	softRate := make([][]float64, len(cfg.Values))
	paperDrop := make([][]float64, len(cfg.Values))
	softDrop := make([][]float64, len(cfg.Values))
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
		pred := ts.RewardRate()
		for b, burst := range cfg.Values {
			var tasks []workload.Task
			rng := stats.NewRand(seed + int64(b)*131 + 600000)
			if burst <= 0 {
				tasks = workload.GenerateTasks(sc.DC, horizon, rng)
			} else {
				tasks, err = workload.GenerateBurstyTasks(sc.DC, horizon, workload.BurstConfig{
					Burst:            burst,
					HighFraction:     0.25,
					MeanHighDuration: horizon / 10,
				}, rng)
				if err != nil {
					return nil, err
				}
			}
			for _, policy := range []sched.Policy{sched.PaperPolicy{}, sched.SoftRatioPolicy{}} {
				out, err := sim.RunOpts(sc.DC, ts.PStates, ts.Stage3.TC, tasks, horizon, sim.Options{Policy: policy})
				if err != nil {
					return nil, err
				}
				rate := 100 * out.WindowRewardRate / pred
				drop := 100 * float64(out.Dropped) / float64(len(tasks))
				if policy.Name() == "paper-min-ratio" {
					paperRate[b] = append(paperRate[b], rate)
					paperDrop[b] = append(paperDrop[b], drop)
				} else {
					softRate[b] = append(softRate[b], rate)
					softDrop[b] = append(softDrop[b], drop)
				}
			}
		}
	}
	for b := range cfg.Values {
		res.PaperRatePct = append(res.PaperRatePct, stats.Summarize(paperRate[b]))
		res.SoftRatePct = append(res.SoftRatePct, stats.Summarize(softRate[b]))
		res.PaperDropPct = append(res.PaperDropPct, stats.Summarize(paperDrop[b]))
		res.SoftDropPct = append(res.SoftDropPct, stats.Summarize(softDrop[b]))
	}
	return res, nil
}

// Render prints the burstiness table.
func (r *BurstinessResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Arrival-burstiness sweep (%d trials, %d nodes, %d CRACs, %.0f s)\n",
		r.Config.Trials, r.Config.NNodes, r.Config.NCracs, r.Horizon)
	fmt.Fprintf(&b, "realized/predicted reward %% and drop %% per policy\n\n")
	fmt.Fprintf(&b, "%-8s %-22s %-22s %-18s %-18s\n", "burst", "paper rate %", "soft rate %", "paper drop %", "soft drop %")
	for i, burst := range r.Bursts {
		fmt.Fprintf(&b, "%-8.2f %8.1f ± %-10.1f %8.1f ± %-10.1f %6.1f ± %-8.1f %6.1f ± %-8.1f\n",
			burst,
			r.PaperRatePct[i].Mean, r.PaperRatePct[i].HalfCI95,
			r.SoftRatePct[i].Mean, r.SoftRatePct[i].HalfCI95,
			r.PaperDropPct[i].Mean, r.PaperDropPct[i].HalfCI95,
			r.SoftDropPct[i].Mean, r.SoftDropPct[i].HalfCI95)
	}
	return b.String()
}
