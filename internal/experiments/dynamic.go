package experiments

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/thermal"
	"thermaldc/internal/workload"
)

// DynamicConfig controls the epoch-reassignment extension experiment. The
// paper fixes P-states and desired rates once ("once a P-state of a core
// is assigned, we assume that it is not changed") and assumes constant
// arrival rates; here the rates drift sinusoidally and the first-step
// assignment optionally re-runs every epoch with the current rates.
type DynamicConfig struct {
	// NCracs/NNodes/StaticShare/Vprop/Seed: scenario knobs.
	NCracs, NNodes int
	StaticShare    float64
	Vprop          float64
	Seed           int64
	// Horizon is the simulated arrival window (s).
	Horizon float64
	// Epoch is the reassignment interval (s).
	Epoch float64
	// Amplitude ∈ [0, 1) modulates each λ_i by 1 + Amplitude·sin(2πt/Period + φ_i),
	// with phases spread across task types so the mix shifts over time.
	Amplitude float64
	// Period of the modulation (s).
	Period float64
	// Options for the first-step assignment at each (re)assignment.
	Options assign.Options
}

// DefaultDynamicConfig returns a reduced-scale drift experiment.
func DefaultDynamicConfig(seed int64) DynamicConfig {
	return DynamicConfig{
		NCracs:      2,
		NNodes:      20,
		StaticShare: 0.3,
		Vprop:       0.3,
		Seed:        seed,
		Horizon:     120,
		Epoch:       30,
		Amplitude:   0.8,
		Period:      120,
		Options:     assign.DefaultOptions(),
	}
}

// DynamicResult compares the static first-step assignment against epoch
// reassignment on the same drifting task stream.
type DynamicResult struct {
	Config DynamicConfig
	// Tasks is the stream length.
	Tasks int
	// Static*/Adaptive*: realized reward rates and drop counts.
	StaticReward    float64
	AdaptiveReward  float64
	StaticDropped   int
	AdaptiveDropped int
	// Reassignments counts first-step re-solves in the adaptive run.
	Reassignments int
	// GainPct = 100·(Adaptive − Static)/Static.
	GainPct float64
	// MinTransientSlack is the smallest redline slack (°C) observed while
	// simulating the first-order temperature dynamics across the adaptive
	// run's epoch switches (τ = 90 s). Non-negative confirms the
	// no-overshoot property: switching between redline-feasible operating
	// points never violates the redlines transiently.
	MinTransientSlack float64
}

// instantRate returns λ_i at time t.
func instantRate(base float64, i, t1 int, cfg *DynamicConfig, t float64) float64 {
	phase := 2 * math.Pi * float64(i) / float64(t1)
	return base * (1 + cfg.Amplitude*math.Sin(2*math.Pi*t/cfg.Period+phase))
}

// meanRateOver integrates λ_i over [a, b] / (b−a) analytically.
func meanRateOver(base float64, i, t1 int, cfg *DynamicConfig, a, b float64) float64 {
	phase := 2 * math.Pi * float64(i) / float64(t1)
	w := 2 * math.Pi / cfg.Period
	// ∫ (1 + A sin(wt+φ)) dt = (b−a) − A/w·(cos(wb+φ) − cos(wa+φ))
	integral := (b - a) - cfg.Amplitude/w*(math.Cos(w*b+phase)-math.Cos(w*a+phase))
	return base * integral / (b - a)
}

// generateDriftingTasks draws a non-homogeneous Poisson stream per type by
// thinning against the peak rate.
func generateDriftingTasks(dc *model.DataCenter, cfg *DynamicConfig, rng interface {
	Float64() float64
	ExpFloat64() float64
}) []workload.Task {
	var tasks []workload.Task
	t1 := dc.T()
	for i, tt := range dc.TaskTypes {
		peak := tt.ArrivalRate * (1 + cfg.Amplitude)
		if peak <= 0 {
			continue
		}
		for t := rng.ExpFloat64() / peak; t < cfg.Horizon; t += rng.ExpFloat64() / peak {
			if rng.Float64()*peak <= instantRate(tt.ArrivalRate, i, t1, cfg, t) {
				tasks = append(tasks, workload.Task{Type: i, Arrival: t, Deadline: t + tt.RelDeadline})
			}
		}
	}
	sort.Slice(tasks, func(a, b int) bool { return tasks[a].Arrival < tasks[b].Arrival })
	for i := range tasks {
		tasks[i].ID = i
	}
	return tasks
}

// DynamicReassignment runs the drift experiment.
func DynamicReassignment(cfg DynamicConfig) (*DynamicResult, error) {
	return DynamicReassignmentContext(context.Background(), cfg)
}

// DynamicReassignmentContext is DynamicReassignment under a cancelable
// context: canceling ctx stops between epochs.
func DynamicReassignmentContext(ctx context.Context, cfg DynamicConfig) (*DynamicResult, error) {
	if cfg.Epoch <= 0 || cfg.Horizon <= 0 || cfg.Period <= 0 {
		return nil, fmt.Errorf("experiments: horizon, epoch and period must be positive")
	}
	scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, cfg.Seed)
	scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
	sc, err := scenario.Build(scCfg)
	if err != nil {
		return nil, err
	}
	rng := stats.NewRand(cfg.Seed + 424242)
	tasks := generateDriftingTasks(sc.DC, &cfg, rng)

	res := &DynamicResult{Config: cfg, Tasks: len(tasks)}

	// Static run: one assignment from the long-run average rates (the base
	// λ_i, since the sinusoid averages out).
	static, err := assign.ThreeStage(sc.DC, sc.Thermal, cfg.Options)
	if err != nil {
		return nil, err
	}
	staticSched, err := sched.New(sc.DC, static.PStates, static.Stage3.CoreGroup, static.Stage3.Tasks, static.Stage3.GroupRate)
	if err != nil {
		return nil, err
	}
	staticOut, err := sim.RunOpts(sc.DC, static.PStates, nil, tasks, cfg.Horizon, sim.Options{Scheduler: staticSched})
	if err != nil {
		return nil, err
	}
	res.StaticReward = staticOut.TotalReward / cfg.Horizon
	res.StaticDropped = staticOut.Dropped

	// Adaptive run: re-solve the first step each epoch with that epoch's
	// mean rates; core busy state persists across epochs. A transient
	// thermal simulation runs alongside to confirm the epoch switches are
	// thermally safe.
	freeAt := make([]float64, sc.DC.NumCores())
	totalReward := 0.0
	totalDropped := 0
	baseRates := make([]float64, sc.DC.T())
	for i, tt := range sc.DC.TaskTypes {
		baseRates[i] = tt.ArrivalRate
	}
	const tau = 90.0
	var trans *thermal.Transient
	res.MinTransientSlack = math.Inf(1)
	for start := 0.0; start < cfg.Horizon; start += cfg.Epoch {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		end := math.Min(start+cfg.Epoch, cfg.Horizon)
		for i := range sc.DC.TaskTypes {
			sc.DC.TaskTypes[i].ArrivalRate = meanRateOver(baseRates[i], i, sc.DC.T(), &cfg, start, end)
		}
		epochAssign, err := assign.ThreeStage(sc.DC, sc.Thermal, cfg.Options)
		if err != nil {
			return nil, err
		}
		res.Reassignments++
		// Thermal transient: step toward this epoch's operating point in
		// 5 s increments, tracking the minimum redline slack.
		pcn := assign.NodePowersFromPStates(sc.DC, epochAssign.PStates)
		if trans == nil {
			trans, err = thermal.NewTransient(sc.Thermal, tau, epochAssign.Stage1.CracOut, pcn)
			if err != nil {
				return nil, err
			}
		}
		for t := 0.0; t < end-start; t += 5 {
			trans.Step(5, epochAssign.Stage1.CracOut, pcn)
			if slack := trans.RedlineSlack(); slack < res.MinTransientSlack {
				res.MinTransientSlack = slack
			}
		}
		var epochTasks []workload.Task
		for _, t := range tasks {
			if t.Arrival >= start && t.Arrival < end {
				epochTasks = append(epochTasks, t)
			}
		}
		// A fresh scheduler per epoch, its ATC clock started at the epoch
		// so ratios reflect the current epoch only.
		s3 := epochAssign.Stage3
		s, err := sched.New(sc.DC, epochAssign.PStates, s3.CoreGroup, s3.Tasks, s3.GroupRate)
		if err != nil {
			return nil, err
		}
		s.SetStartTime(start)
		out, err := sim.RunOpts(sc.DC, epochAssign.PStates, nil, epochTasks, end, sim.Options{
			Start:     start,
			Scheduler: s,
			FreeAt:    freeAt,
		})
		if err != nil {
			return nil, err
		}
		totalReward += out.TotalReward
		totalDropped += out.Dropped
	}
	// Restore the scenario's rates.
	for i := range sc.DC.TaskTypes {
		sc.DC.TaskTypes[i].ArrivalRate = baseRates[i]
	}
	res.AdaptiveReward = totalReward / cfg.Horizon
	res.AdaptiveDropped = totalDropped
	res.GainPct = 100 * (res.AdaptiveReward - res.StaticReward) / res.StaticReward
	return res, nil
}

// Render prints the comparison.
func (r *DynamicResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Epoch-reassignment extension (%d nodes, %d CRACs, %d tasks)\n",
		r.Config.NNodes, r.Config.NCracs, r.Tasks)
	fmt.Fprintf(&b, "arrival drift: ±%.0f%% over a %.0f s period; epoch %.0f s\n\n",
		100*r.Config.Amplitude, r.Config.Period, r.Config.Epoch)
	fmt.Fprintf(&b, "static assignment   : reward %.1f/s, dropped %d\n", r.StaticReward, r.StaticDropped)
	fmt.Fprintf(&b, "epoch reassignment  : reward %.1f/s, dropped %d (%d re-solves)\n",
		r.AdaptiveReward, r.AdaptiveDropped, r.Reassignments)
	fmt.Fprintf(&b, "gain                : %+.2f%%\n", r.GainPct)
	fmt.Fprintf(&b, "min transient slack : %.2f °C (no-overshoot check, τ = 90 s)\n", r.MinTransientSlack)
	return b.String()
}
