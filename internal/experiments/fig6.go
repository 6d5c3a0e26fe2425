// Package experiments regenerates every table and figure of the paper's
// evaluation: Table I (node-type parameters), Table II (EC/RC ranges),
// Figures 3-5 (reward-rate function examples), Figure 6 (the headline
// improvement comparison), plus extension sweeps (power cap, ψ, Vprop,
// static share, temperature-search ablation) and the second-step
// dynamic-scheduler validation. Trials are independent and run on a
// worker pool sized to the machine.
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

// Fig6Config controls the Figure-6 experiment.
type Fig6Config struct {
	// Trials per group (paper: 25).
	Trials int
	// NCracs and NNodes size each data center (paper: 3 and 150).
	NCracs, NNodes int
	// BaseSeed separates experiment repetitions; trial t of group g uses
	// seed BaseSeed + 1000·g + t.
	BaseSeed int64
	// Psis are the ψ values compared (paper: 25 and 50); a best-of cell is
	// always added.
	Psis []float64
	// Options for the assignment techniques (search window, strategy).
	Options assign.Options
	// Groups are the parameter combinations; nil = the paper's three.
	Groups []Fig6Group
	// SimHorizon, when positive, additionally runs the second-step
	// dynamic-scheduler simulation for both techniques over this many
	// seconds and records the *realized* (completed-in-window) improvement
	// alongside the Stage-3 steady-state one.
	SimHorizon float64
	// SimPaperPolicy selects the paper's strict min-ratio rule for the
	// simulation; false (default) uses the opportunistic soft variant.
	SimPaperPolicy bool
}

// Fig6Group is one column group of Figure 6.
type Fig6Group struct {
	// StaticShare is the static fraction of P-state-0 core power.
	StaticShare float64
	// Vprop is the ECS frequency-proportionality variation.
	Vprop float64
}

// Label renders the group as the paper captions it.
func (g Fig6Group) Label() string {
	return fmt.Sprintf("static %.0f%%, Vprop %.1f", g.StaticShare*100, g.Vprop)
}

// PaperGroups returns the paper's three Figure-6 column groups in order.
func PaperGroups() []Fig6Group {
	return []Fig6Group{
		{StaticShare: 0.3, Vprop: 0.1},
		{StaticShare: 0.3, Vprop: 0.3},
		{StaticShare: 0.2, Vprop: 0.3},
	}
}

// DefaultFig6Config returns the paper's full-scale setup.
func DefaultFig6Config() Fig6Config {
	return Fig6Config{
		Trials:   25,
		NCracs:   3,
		NNodes:   150,
		BaseSeed: 1,
		Psis:     []float64{25, 50},
		Options:  assign.DefaultOptions(),
	}
}

// Fig6Trial is the outcome of one simulation run within a group.
type Fig6Trial struct {
	Seed           int64
	BaselineReward float64
	// RewardByPsi[p] is the three-stage reward rate at Psis[p].
	RewardByPsi []float64
	// ImprovementByPsi[p] = 100·(RewardByPsi[p] − Baseline)/Baseline.
	ImprovementByPsi []float64
	// BestImprovement uses the best ψ per trial (the paper's third bar).
	BestImprovement float64
	// Realized* mirror the above from the second-step simulation
	// (populated only when Config.SimHorizon > 0); the best ψ by Stage-3
	// reward is the one simulated. "Admitted" counts every accepted task
	// (steady-state estimator); "Realized" counts only completions inside
	// the horizon (censored lower bound).
	RealizedBaseline    float64
	RealizedThreeStage  float64
	RealizedImprovement float64
	AdmittedImprovement float64
}

// Fig6GroupResult aggregates one column group.
type Fig6GroupResult struct {
	Group  Fig6Group
	Trials []Fig6Trial
	// PsiSummaries[p] summarizes ImprovementByPsi[p] across trials;
	// BestSummary summarizes BestImprovement; RealizedSummary summarizes
	// the simulated improvement when SimHorizon > 0.
	PsiSummaries    []stats.Summary
	BestSummary     stats.Summary
	RealizedSummary stats.Summary
	AdmittedSummary stats.Summary
}

// Fig6Result is the full experiment outcome.
type Fig6Result struct {
	Config Fig6Config
	Groups []Fig6GroupResult
}

// Figure6 runs the paper's headline experiment: for every group and trial,
// build a §VI scenario, solve the Equation-21 baseline and the three-stage
// assignment at each ψ, and summarize the percentage improvements with 95%
// confidence intervals.
func Figure6(cfg Fig6Config, progress func(string)) (*Fig6Result, error) {
	return Figure6Context(context.Background(), cfg, progress)
}

// Figure6Context is Figure6 under a context: canceling ctx abandons
// unstarted trials and returns the context's error.
func Figure6Context(ctx context.Context, cfg Fig6Config, progress func(string)) (*Fig6Result, error) {
	if cfg.Trials <= 0 {
		return nil, fmt.Errorf("experiments: Trials must be positive")
	}
	if len(cfg.Psis) == 0 {
		return nil, fmt.Errorf("experiments: need at least one ψ value")
	}
	groups := cfg.Groups
	if groups == nil {
		groups = PaperGroups()
	}
	if progress == nil {
		progress = func(string) {}
	}
	done, total := 0, len(groups)*cfg.Trials
	perGroup, err := forEachCell(ctx, len(groups), cfg.Trials, func(g, t int) (Fig6Trial, error) {
		tr, err := runFig6Trial(cfg, groups[g], cfg.BaseSeed+int64(1000*g+t))
		if err != nil {
			return Fig6Trial{}, fmt.Errorf("group %s trial %d: %w", groups[g].Label(), t, err)
		}
		return tr, nil
	}, func(g, _ int, tr Fig6Trial) {
		done++
		progress(fmt.Sprintf("[%d/%d] %s seed %d: baseline %.1f, best %+.2f%%",
			done, total, groups[g].Label(), tr.Seed, tr.BaselineReward, tr.BestImprovement))
	})
	if err != nil {
		return nil, err
	}

	result := &Fig6Result{Config: cfg}
	for g, trials := range perGroup {
		gr := Fig6GroupResult{Group: groups[g], Trials: trials}
		for p := range cfg.Psis {
			vals := make([]float64, len(trials))
			for t := range trials {
				vals[t] = trials[t].ImprovementByPsi[p]
			}
			gr.PsiSummaries = append(gr.PsiSummaries, stats.Summarize(vals))
		}
		best := make([]float64, len(trials))
		for t := range trials {
			best[t] = trials[t].BestImprovement
		}
		gr.BestSummary = stats.Summarize(best)
		if cfg.SimHorizon > 0 {
			realized := make([]float64, len(trials))
			admitted := make([]float64, len(trials))
			for t := range trials {
				realized[t] = trials[t].RealizedImprovement
				admitted[t] = trials[t].AdmittedImprovement
			}
			gr.RealizedSummary = stats.Summarize(realized)
			gr.AdmittedSummary = stats.Summarize(admitted)
		}
		result.Groups = append(result.Groups, gr)
	}
	return result, nil
}

// runFig6Trial executes one (group, seed) cell.
func runFig6Trial(cfg Fig6Config, group Fig6Group, seed int64) (Fig6Trial, error) {
	scCfg := scenario.Default(group.StaticShare, group.Vprop, seed)
	scCfg.NCracs = cfg.NCracs
	scCfg.NNodes = cfg.NNodes
	sc, err := scenario.Build(scCfg)
	if err != nil {
		return Fig6Trial{}, err
	}
	bl, err := assign.Baseline(sc.DC, sc.Thermal, cfg.Options)
	if err != nil {
		return Fig6Trial{}, fmt.Errorf("baseline: %w", err)
	}
	tr := Fig6Trial{Seed: seed, BaselineReward: bl.RewardRate}
	best := 0.0
	tsResults := make([]*assign.ThreeStageResult, 0, len(cfg.Psis))
	for _, psi := range cfg.Psis {
		opts := cfg.Options
		opts.Psi = psi
		ts, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
		if err != nil {
			return Fig6Trial{}, fmt.Errorf("three-stage ψ=%g: %w", psi, err)
		}
		tsResults = append(tsResults, ts)
		r := ts.RewardRate()
		tr.RewardByPsi = append(tr.RewardByPsi, r)
		tr.ImprovementByPsi = append(tr.ImprovementByPsi, 100*(r-bl.RewardRate)/bl.RewardRate)
		if r > best {
			best = r
		}
	}
	tr.BestImprovement = 100 * (best - bl.RewardRate) / bl.RewardRate

	if cfg.SimHorizon > 0 {
		// Simulate the baseline and the best-ψ three-stage assignment on
		// one shared task stream, reusing the per-ψ result already solved
		// above instead of re-running the whole search.
		bestIdx := 0
		for p := range tr.RewardByPsi {
			if tr.RewardByPsi[p] > tr.RewardByPsi[bestIdx] {
				bestIdx = p
			}
		}
		ts := tsResults[bestIdx]
		tasks := workload.GenerateTasks(sc.DC, cfg.SimHorizon, stats.NewRand(seed+800000))
		var policy sched.Policy = sched.SoftRatioPolicy{}
		if cfg.SimPaperPolicy {
			policy = sched.PaperPolicy{}
		}
		blPS, blTC := bl.Assignment(sc.DC)
		blSim, err := sim.RunOpts(sc.DC, blPS, blTC, tasks, cfg.SimHorizon, sim.Options{Policy: policy})
		if err != nil {
			return Fig6Trial{}, err
		}
		tsSim, err := sim.RunOpts(sc.DC, ts.PStates, ts.Stage3.TC, tasks, cfg.SimHorizon, sim.Options{Policy: policy})
		if err != nil {
			return Fig6Trial{}, err
		}
		tr.RealizedBaseline = blSim.WindowRewardRate
		tr.RealizedThreeStage = tsSim.WindowRewardRate
		tr.RealizedImprovement = 100 * (tsSim.WindowRewardRate - blSim.WindowRewardRate) / blSim.WindowRewardRate
		tr.AdmittedImprovement = 100 * (tsSim.RewardRate - blSim.RewardRate) / blSim.RewardRate
	}
	return tr, nil
}

// Render prints the Figure-6 result as the paper's bar groups with 95%
// confidence intervals and a rough ASCII bar.
func (r *Fig6Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Figure 6 — average %% improvement of three-stage over Equation-21 baseline\n")
	fmt.Fprintf(&b, "(%d trials per group, %d nodes, %d CRACs)\n\n", r.Config.Trials, r.Config.NNodes, r.Config.NCracs)
	for _, g := range r.Groups {
		fmt.Fprintf(&b, "%s\n", g.Group.Label())
		for p, s := range g.PsiSummaries {
			fmt.Fprintf(&b, "  ψ=%-3.0f  %7.2f%% ± %.2f  %s\n", r.Config.Psis[p], s.Mean, s.HalfCI95, bar(s.Mean))
		}
		fmt.Fprintf(&b, "  best  %7.2f%% ± %.2f  %s\n", g.BestSummary.Mean, g.BestSummary.HalfCI95, bar(g.BestSummary.Mean))
		if r.Config.SimHorizon > 0 {
			pol := "soft policy"
			if r.Config.SimPaperPolicy {
				pol = "paper policy"
			}
			fmt.Fprintf(&b, "  sim   %7.2f%% ± %.2f  %s (admitted, %.0f s, %s)\n",
				g.AdmittedSummary.Mean, g.AdmittedSummary.HalfCI95, bar(g.AdmittedSummary.Mean), r.Config.SimHorizon, pol)
			fmt.Fprintf(&b, "  win   %7.2f%% ± %.2f  %s (completed-in-window)\n",
				g.RealizedSummary.Mean, g.RealizedSummary.HalfCI95, bar(g.RealizedSummary.Mean))
		}
		b.WriteString("\n")
	}
	return b.String()
}

func bar(pct float64) string {
	n := int(pct * 2)
	if n < 0 {
		n = 0
	}
	if n > 60 {
		n = 60
	}
	return strings.Repeat("█", n)
}
