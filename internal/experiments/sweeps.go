package experiments

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

// SweepConfig controls the extension sweeps.
type SweepConfig struct {
	// Trials per sweep point.
	Trials int
	// NCracs and NNodes size each data center.
	NCracs, NNodes int
	// BaseSeed: trial t of point p uses BaseSeed + 1000·p + t.
	BaseSeed int64
	// StaticShare and Vprop fix the non-swept knobs.
	StaticShare, Vprop float64
	// Options for both techniques (ψ applies to the three-stage side).
	Options assign.Options
	// Values are the swept x-coordinates.
	Values []float64
}

// DefaultSweepConfig returns a reduced-scale sweep setup (fast enough for
// interactive use; raise NNodes/Trials for paper fidelity).
func DefaultSweepConfig(values []float64) SweepConfig {
	return SweepConfig{
		Trials:      5,
		NCracs:      2,
		NNodes:      30,
		BaseSeed:    1,
		StaticShare: 0.3,
		Vprop:       0.3,
		Options:     assign.DefaultOptions(),
		Values:      values,
	}
}

// SweepPoint is one x-coordinate of a sweep.
type SweepPoint struct {
	X float64
	// Baseline and ThreeStage summarize absolute reward rates;
	// Improvement summarizes the per-trial percentage gain.
	Baseline    stats.Summary
	ThreeStage  stats.Summary
	Improvement stats.Summary
}

// SweepResult is a full sweep.
type SweepResult struct {
	Kind, XLabel string
	Config       SweepConfig
	Points       []SweepPoint
}

// trialEval runs both techniques on one scenario and returns their reward
// rates.
type trialEval func(x float64, seed int64) (baseline, threeStage float64, err error)

// forEachCell evaluates eval on every cell of a points × trials grid on a
// worker pool sized to GOMAXPROCS and returns the results stored by cell,
// out[p][t] = eval(p, t), so whatever the caller folds from them does not
// depend on which worker finished first. onDone, when non-nil, runs on the
// calling goroutine once per successful cell, in completion order (progress
// lines). The error returned is the first failing cell's in (point, trial)
// order; canceling ctx fails every cell not yet started with ctx's error.
func forEachCell[T any](ctx context.Context, points, trials int, eval func(p, t int) (T, error), onDone func(p, t int, v T)) ([][]T, error) {
	out := make([][]T, points)
	errs := make([][]error, points)
	for p := range out {
		out[p] = make([]T, trials)
		errs[p] = make([]error, trials)
	}
	type cell struct{ p, t int }
	jobs := make(chan cell)
	finished := make(chan cell)
	var wg sync.WaitGroup
	for w := 0; w < runtime.GOMAXPROCS(0); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for c := range jobs {
				if err := ctx.Err(); err != nil {
					errs[c.p][c.t] = err
				} else {
					out[c.p][c.t], errs[c.p][c.t] = eval(c.p, c.t)
				}
				finished <- c
			}
		}()
	}
	go func() {
		for p := 0; p < points; p++ {
			for t := 0; t < trials; t++ {
				jobs <- cell{p, t}
			}
		}
		close(jobs)
		wg.Wait()
		close(finished)
	}()
	for c := range finished {
		if errs[c.p][c.t] == nil && onDone != nil {
			onDone(c.p, c.t, out[c.p][c.t])
		}
	}
	for _, row := range errs {
		for _, err := range row {
			if err != nil {
				return nil, err
			}
		}
	}
	return out, nil
}

// runSweep evaluates all (value, trial) cells on a worker pool and
// summarizes each point over its trials in trial order. Canceling ctx
// abandons unstarted cells and returns the context's error.
func runSweep(ctx context.Context, kind, xlabel string, cfg SweepConfig, eval trialEval) (*SweepResult, error) {
	if cfg.Trials <= 0 || len(cfg.Values) == 0 {
		return nil, fmt.Errorf("experiments: sweep needs positive Trials and at least one value")
	}
	cells, err := forEachCell(ctx, len(cfg.Values), cfg.Trials, func(p, t int) ([2]float64, error) {
		bl, ts, err := eval(cfg.Values[p], cfg.BaseSeed+int64(1000*p+t))
		if err != nil {
			return [2]float64{}, fmt.Errorf("%s=%g trial %d: %w", xlabel, cfg.Values[p], t, err)
		}
		return [2]float64{bl, ts}, nil
	}, nil)
	if err != nil {
		return nil, err
	}
	out := &SweepResult{Kind: kind, XLabel: xlabel, Config: cfg}
	for p, x := range cfg.Values {
		bl := make([]float64, cfg.Trials)
		ts := make([]float64, cfg.Trials)
		imp := make([]float64, cfg.Trials)
		for t, c := range cells[p] {
			bl[t], ts[t] = c[0], c[1]
			imp[t] = 100 * (c[1] - c[0]) / c[0]
		}
		out.Points = append(out.Points, SweepPoint{
			X:           x,
			Baseline:    stats.Summarize(bl),
			ThreeStage:  stats.Summarize(ts),
			Improvement: stats.Summarize(imp),
		})
	}
	return out, nil
}

// bothTechniques builds the scenario and runs baseline + three-stage once.
func bothTechniques(sc *scenario.Scenario, opts assign.Options) (bl, ts float64, err error) {
	b, err := assign.Baseline(sc.DC, sc.Thermal, opts)
	if err != nil {
		return 0, 0, err
	}
	t, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
	if err != nil {
		return 0, 0, err
	}
	return b.RewardRate, t.RewardRate(), nil
}

// PowerCapSweep varies where Pconst sits between Pmin and Pmax
// (Equation 18 uses 0.5). The three-stage advantage should be largest in
// the heavily constrained regime and vanish as the cap approaches Pmax.
func PowerCapSweep(cfg SweepConfig) (*SweepResult, error) {
	return PowerCapSweepContext(context.Background(), cfg)
}

// PowerCapSweepContext is PowerCapSweep under a cancelable context.
func PowerCapSweepContext(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	return runSweep(ctx, "power-cap", "Pconst fraction", cfg, func(x float64, seed int64) (float64, float64, error) {
		scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, seed)
		scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
		scCfg.PconstFraction = x
		sc, err := scenario.Build(scCfg)
		if err != nil {
			return 0, 0, err
		}
		return bothTechniques(sc, cfg.Options)
	})
}

// PsiSweep varies ψ, re-solving only the three-stage side per value.
func PsiSweep(cfg SweepConfig) (*SweepResult, error) {
	return PsiSweepContext(context.Background(), cfg)
}

// PsiSweepContext is PsiSweep under a cancelable context.
func PsiSweepContext(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	return runSweep(ctx, "psi", "ψ (%)", cfg, func(x float64, seed int64) (float64, float64, error) {
		scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, seed)
		scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
		sc, err := scenario.Build(scCfg)
		if err != nil {
			return 0, 0, err
		}
		opts := cfg.Options
		opts.Psi = x
		return bothTechniques(sc, opts)
	})
}

// VpropSweep varies the ECS frequency-proportionality variation factor.
func VpropSweep(cfg SweepConfig) (*SweepResult, error) {
	return VpropSweepContext(context.Background(), cfg)
}

// VpropSweepContext is VpropSweep under a cancelable context.
func VpropSweepContext(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	return runSweep(ctx, "vprop", "Vprop", cfg, func(x float64, seed int64) (float64, float64, error) {
		scCfg := scenario.Default(cfg.StaticShare, x, seed)
		scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
		sc, err := scenario.Build(scCfg)
		if err != nil {
			return 0, 0, err
		}
		return bothTechniques(sc, cfg.Options)
	})
}

// HeterogeneitySweep varies the node-type mix from all-NEC (x = 0) to
// all-HP (x = 1). With a homogeneous fleet the task-machine affinity the
// title's "heterogeneous" refers to disappears on the node axis, leaving
// only P-state affinity; the sweep separates the two effects.
func HeterogeneitySweep(cfg SweepConfig) (*SweepResult, error) {
	return HeterogeneitySweepContext(context.Background(), cfg)
}

// HeterogeneitySweepContext is HeterogeneitySweep under a cancelable context.
func HeterogeneitySweepContext(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	return runSweep(ctx, "heterogeneity", "type-1 fraction", cfg, func(x float64, seed int64) (float64, float64, error) {
		scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, seed)
		scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
		scCfg.Type1Fraction = x
		sc, err := scenario.Build(scCfg)
		if err != nil {
			return 0, 0, err
		}
		return bothTechniques(sc, cfg.Options)
	})
}

// StaticShareSweep varies the static fraction of P-state-0 core power.
func StaticShareSweep(cfg SweepConfig) (*SweepResult, error) {
	return StaticShareSweepContext(context.Background(), cfg)
}

// StaticShareSweepContext is StaticShareSweep under a cancelable context.
func StaticShareSweepContext(ctx context.Context, cfg SweepConfig) (*SweepResult, error) {
	return runSweep(ctx, "static-share", "static share", cfg, func(x float64, seed int64) (float64, float64, error) {
		scCfg := scenario.Default(x, cfg.Vprop, seed)
		scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
		sc, err := scenario.Build(scCfg)
		if err != nil {
			return 0, 0, err
		}
		return bothTechniques(sc, cfg.Options)
	})
}

// Render prints a sweep as an aligned table.
func (r *SweepResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Sweep: %s (%d trials/point, %d nodes, %d CRACs)\n\n",
		r.Kind, r.Config.Trials, r.Config.NNodes, r.Config.NCracs)
	fmt.Fprintf(&b, "%-16s %-24s %-24s %-20s\n", r.XLabel, "baseline reward", "three-stage reward", "improvement %")
	for _, p := range r.Points {
		fmt.Fprintf(&b, "%-16.3g %10.2f ± %-10.2f %10.2f ± %-10.2f %8.2f ± %-8.2f\n",
			p.X, p.Baseline.Mean, p.Baseline.HalfCI95,
			p.ThreeStage.Mean, p.ThreeStage.HalfCI95,
			p.Improvement.Mean, p.Improvement.HalfCI95)
	}
	return b.String()
}

// StrategyAblationResult compares temperature-search strategies.
type StrategyAblationResult struct {
	Config     SweepConfig
	Strategies []assign.Strategy
	// Reward[s], Evals[s] and Solved[s] summarize each strategy across
	// trials: its reward, the outlet candidates its search visited and the
	// Stage-1 LPs it solved (the rest were screened out by their bound).
	Reward []stats.Summary
	Evals  []stats.Summary
	Solved []stats.Summary
}

// StrategyAblation runs the three-stage technique under each search
// strategy on identical scenarios, comparing reward, candidates visited
// and LP solves.
// cfg.Values is ignored.
func StrategyAblation(cfg SweepConfig, strategies []assign.Strategy) (*StrategyAblationResult, error) {
	return StrategyAblationContext(context.Background(), cfg, strategies)
}

// StrategyAblationContext is StrategyAblation under a cancelable context.
func StrategyAblationContext(ctx context.Context, cfg SweepConfig, strategies []assign.Strategy) (*StrategyAblationResult, error) {
	if len(strategies) == 0 {
		strategies = []assign.Strategy{assign.CoarseToFine, assign.FullGrid, assign.CoordDescent}
	}
	rewards := make([][]float64, len(strategies))
	evals := make([][]float64, len(strategies))
	solved := make([][]float64, len(strategies))
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
		for s, strat := range strategies {
			opts := cfg.Options
			opts.Strategy = strat
			res, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
			if err != nil {
				return nil, fmt.Errorf("strategy %s: %w", strat, err)
			}
			rewards[s] = append(rewards[s], res.RewardRate())
			evals[s] = append(evals[s], float64(res.SearchEvals))
			solved[s] = append(solved[s], float64(res.SearchSolved))
		}
	}
	out := &StrategyAblationResult{Config: cfg, Strategies: strategies}
	for s := range strategies {
		out.Reward = append(out.Reward, stats.Summarize(rewards[s]))
		out.Evals = append(out.Evals, stats.Summarize(evals[s]))
		out.Solved = append(out.Solved, stats.Summarize(solved[s]))
	}
	return out, nil
}

// Render prints the ablation table.
func (r *StrategyAblationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Temperature-search strategy ablation (%d trials, %d nodes, %d CRACs)\n\n",
		r.Config.Trials, r.Config.NNodes, r.Config.NCracs)
	fmt.Fprintf(&b, "%-22s %-24s %-18s %-18s\n", "strategy", "three-stage reward", "candidates visited", "LP solves")
	for s, strat := range r.Strategies {
		fmt.Fprintf(&b, "%-22s %10.2f ± %-10.2f %8.0f ± %-8.0f %8.0f ± %-8.0f\n",
			strat, r.Reward[s].Mean, r.Reward[s].HalfCI95, r.Evals[s].Mean, r.Evals[s].HalfCI95,
			r.Solved[s].Mean, r.Solved[s].HalfCI95)
	}
	return b.String()
}

// SchedulerValidation runs the second-step simulation against the Stage-3
// prediction (Section V.C has no figure; this is the natural check).
type SchedulerValidationResult struct {
	Config SweepConfig
	// RatePct: admitted-reward rate / prediction (boundary-inclusive);
	// WindowRatePct: only tasks completing inside the horizon (a lower
	// bound — long-deadline tasks legitimately finish after it).
	RatePct       stats.Summary
	WindowRatePct stats.Summary
	DropPct       stats.Summary
	RatioErr      stats.Summary
	Predicted     stats.Summary
	Realized      stats.Summary
}

// SchedulerValidation simulates the dynamic scheduler for each trial over
// the given horizon (seconds). cfg.Values is ignored.
func SchedulerValidation(cfg SweepConfig, horizon float64) (*SchedulerValidationResult, error) {
	return SchedulerValidationContext(context.Background(), cfg, horizon)
}

// SchedulerValidationContext is SchedulerValidation under a cancelable
// context.
func SchedulerValidationContext(ctx context.Context, cfg SweepConfig, horizon float64) (*SchedulerValidationResult, error) {
	var ratePct, windowPct, dropPct, ratioErr, pred, real []float64
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
		tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(seed+500000))
		out, err := sim.Run(sc.DC, ts.PStates, ts.Stage3.Dense(), tasks, horizon)
		if err != nil {
			return nil, err
		}
		pred = append(pred, ts.RewardRate())
		real = append(real, out.RewardRate)
		ratePct = append(ratePct, 100*out.RewardRate/ts.RewardRate())
		windowPct = append(windowPct, 100*out.WindowRewardRate/ts.RewardRate())
		dropPct = append(dropPct, 100*float64(out.Dropped)/float64(out.Completed+out.Dropped))
		ratioErr = append(ratioErr, out.MeanRatioError)
	}
	return &SchedulerValidationResult{
		Config:        cfg,
		RatePct:       stats.Summarize(ratePct),
		WindowRatePct: stats.Summarize(windowPct),
		DropPct:       stats.Summarize(dropPct),
		RatioErr:      stats.Summarize(ratioErr),
		Predicted:     stats.Summarize(pred),
		Realized:      stats.Summarize(real),
	}, nil
}

// Render prints the validation summary.
func (r *SchedulerValidationResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Second-step dynamic-scheduler validation (%d trials, %d nodes, %d CRACs)\n\n",
		r.Config.Trials, r.Config.NNodes, r.Config.NCracs)
	fmt.Fprintf(&b, "Stage-3 predicted reward rate : %s\n", r.Predicted)
	fmt.Fprintf(&b, "Realized reward rate          : %s\n", r.Realized)
	fmt.Fprintf(&b, "Realized / predicted          : %.1f%% ± %.1f (admitted)\n", r.RatePct.Mean, r.RatePct.HalfCI95)
	fmt.Fprintf(&b, "Completed-in-window / pred.   : %.1f%% ± %.1f (lower bound)\n", r.WindowRatePct.Mean, r.WindowRatePct.HalfCI95)
	fmt.Fprintf(&b, "Dropped tasks                 : %.1f%% ± %.1f\n", r.DropPct.Mean, r.DropPct.HalfCI95)
	fmt.Fprintf(&b, "Mean |ATC/TC − 1|             : %.3f ± %.3f\n", r.RatioErr.Mean, r.RatioErr.HalfCI95)
	return b.String()
}
