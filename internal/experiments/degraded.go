package experiments

import (
	"context"
	"fmt"
	"math"
	"strings"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/controller"
	"thermaldc/internal/faults"
	"thermaldc/internal/linprog"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/workload"
)

// DegradedLevel is one severity point of the degraded-operation sweep.
type DegradedLevel struct {
	// NodeFailures and CracDegradations count the faults injected at this
	// level (degradations draw flow factors from the generator's default
	// [0.5, 0.85] band).
	NodeFailures, CracDegradations int
}

// DegradedConfig controls the degraded-operation experiment: the same
// fault schedules hit an open-loop run (the paper's frozen plan) and a
// re-optimizing run (internal/controller), and the sweep reports reward
// rate and constraint telemetry per severity level.
type DegradedConfig struct {
	// NCracs/NNodes/StaticShare/Vprop/Seed: scenario knobs.
	NCracs, NNodes int
	StaticShare    float64
	Vprop          float64
	Seed           int64
	// Horizon is the simulated window (s); Epoch the re-optimization grid.
	Horizon, Epoch float64
	// Trials averages each level over several (scenario, schedule, stream)
	// draws.
	Trials int
	// Levels is the severity axis.
	Levels []DegradedLevel
	// Options for the first-step assignment at each (re)solve.
	Options assign.Options
	// SolveTimeout bounds each closed-loop epoch re-solve; when the budget
	// runs out the controller's degradation ladder takes over. Zero means
	// no deadline.
	SolveTimeout time.Duration
	// Recorder, when non-nil, threads telemetry through every controller
	// run of the sweep (closed and open loop). Each run takes a fresh run
	// number (Recorder.NextRun), which its series rows and span pids
	// carry.
	Recorder *telemetry.Recorder
	// CheckpointDir, when non-empty, makes the sweep crash-safe: every
	// completed closed-loop epoch and finished run is committed durably to
	// a journal in this directory (see internal/persist). Empty — the
	// default — keeps the sweep on the unpersisted fast path.
	CheckpointDir string
	// Resume recovers the sweep from CheckpointDir instead of starting
	// fresh: finished runs are skipped (their journaled summaries feed the
	// same accumulation), the interrupted closed-loop run continues at its
	// next epoch, and the completed sweep renders byte-identically to an
	// uninterrupted one.
	Resume bool
	// CommitHook, when non-nil, is called after every durable journal
	// commit with the running commit count. Crash-injection tests and the
	// CLI's -crash-after flag use it to die at an exact persistence point.
	CommitHook func(commits int)
}

// DefaultDegradedConfig returns a reduced-scale sweep: severity grows from
// a healthy run to 30% of the fleet dead with both CRACs degraded.
func DefaultDegradedConfig(seed int64) DegradedConfig {
	return DegradedConfig{
		NCracs:      2,
		NNodes:      20,
		StaticShare: 0.3,
		Vprop:       0.1,
		Seed:        seed,
		Horizon:     60,
		Epoch:       15,
		Trials:      3,
		Levels: []DegradedLevel{
			{0, 0}, {2, 0}, {2, 1}, {4, 1}, {6, 2},
		},
		Options: assign.DefaultOptions(),
	}
}

// DegradedRow aggregates one severity level over the trials.
type DegradedRow struct {
	Level DegradedLevel
	// OpenReward and ClosedReward are mean reward rates (reward/s).
	OpenReward, ClosedReward float64
	// OpenLost and ClosedLost are mean lost-task counts.
	OpenLost, ClosedLost float64
	// GainPct = 100·(Closed − Open)/Open.
	GainPct float64
	// *PowerExcess / *InletExcess are the worst constraint excursions seen
	// across the trials (kW above the cap / °C above a redline; ≤ 0 means
	// the constraint held everywhere).
	OpenPowerExcess, OpenInletExcess     float64
	ClosedPowerExcess, ClosedInletExcess float64
	// Resolves and Fallbacks total the closed loop's re-solves and
	// safe-plan activations across the trials; RungCounts tallies epochs
	// per degradation-ladder rung (warm, cold, prev-plan, all-off).
	Resolves, Fallbacks int
	RungCounts          [controller.NumRungs]int
	// LP sums the closed loop's simplex counters (solves, pivots, workspace
	// bytes allocated) across the trials.
	LP linprog.Stats
}

// DegradedResult is the full sweep.
type DegradedResult struct {
	Config DegradedConfig
	Rows   []DegradedRow
}

// DegradedSweep runs the experiment. Canceling ctx stops the sweep between
// epochs (flushing any journal first, so a canceled checkpointed sweep
// resumes exactly where it stopped).
func DegradedSweep(ctx context.Context, cfg DegradedConfig) (*DegradedResult, error) {
	if cfg.Horizon <= 0 || cfg.Epoch <= 0 || cfg.Trials <= 0 || len(cfg.Levels) == 0 {
		return nil, fmt.Errorf("experiments: degraded sweep needs positive horizon, epoch, trials and at least one level")
	}
	for _, lvl := range cfg.Levels {
		// The fault generator would clamp an impossible node count and the
		// row would still carry the requested number, so refuse it here.
		if lvl.NodeFailures < 0 || lvl.CracDegradations < 0 || lvl.NodeFailures > cfg.NNodes {
			return nil, fmt.Errorf("experiments: degraded level %d:%d needs non-negative counts and at most %d node failures",
				lvl.NodeFailures, lvl.CracDegradations, cfg.NNodes)
		}
	}
	baseRun := controller.DefaultConfig(cfg.Horizon, cfg.Epoch)
	baseRun.Assign = cfg.Options
	baseRun.SolveTimeout = cfg.SolveTimeout
	baseRun.Recorder = cfg.Recorder
	ck, err := openSweepCheckpoint(cfg)
	if err != nil {
		return nil, err
	}
	defer ck.Close()

	res := &DegradedResult{Config: cfg}
	for li, lvl := range cfg.Levels {
		row := DegradedRow{
			Level:             lvl,
			OpenPowerExcess:   math.Inf(-1),
			OpenInletExcess:   math.Inf(-1),
			ClosedPowerExcess: math.Inf(-1),
			ClosedInletExcess: math.Inf(-1),
		}
		for trial := 0; trial < cfg.Trials; trial++ {
			closedSum, err := degradedRun(ctx, cfg, ck, runKey{Level: li, Trial: trial}, lvl, baseRun)
			if err != nil {
				return nil, err
			}
			openSum, err := degradedRun(ctx, cfg, ck, runKey{Level: li, Trial: trial, Open: true}, lvl, baseRun)
			if err != nil {
				return nil, err
			}

			row.ClosedReward += closedSum.RewardRate
			row.OpenReward += openSum.RewardRate
			row.ClosedLost += float64(closedSum.Lost)
			row.OpenLost += float64(openSum.Lost)
			row.Resolves += closedSum.Resolves
			row.Fallbacks += closedSum.Fallbacks
			row.LP.Add(closedSum.LP)
			for i, c := range closedSum.RungCounts {
				row.RungCounts[i] += c
			}
			row.ClosedPowerExcess = math.Max(row.ClosedPowerExcess, closedSum.MaxPowerExcess)
			row.ClosedInletExcess = math.Max(row.ClosedInletExcess, closedSum.MaxInletExcess)
			row.OpenPowerExcess = math.Max(row.OpenPowerExcess, openSum.MaxPowerExcess)
			row.OpenInletExcess = math.Max(row.OpenInletExcess, openSum.MaxInletExcess)
		}
		n := float64(cfg.Trials)
		row.ClosedReward /= n
		row.OpenReward /= n
		row.ClosedLost /= n
		row.OpenLost /= n
		if row.OpenReward > 0 {
			row.GainPct = 100 * (row.ClosedReward - row.OpenReward) / row.OpenReward
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// degradedRun executes (or recovers) one run of the sweep and returns its
// row-accumulation summary. Finished runs are served from the journal
// without re-execution; an interrupted closed-loop run resumes from its
// folded checkpoint. Either way the summary is identical to an
// uninterrupted run's — the experiment is deterministic given its seeds.
func degradedRun(ctx context.Context, cfg DegradedConfig, ck *sweepCheckpoint, key runKey, lvl DegradedLevel, baseRun controller.Config) (runSummary, error) {
	// One run number per sweep position stamps the run's series rows and
	// span pids alike. It advances before the journal check,
	// so a resumed sweep numbers its remaining runs as an uninterrupted
	// one does.
	cfg.Recorder.NextRun()
	if sum, ok := ck.completed(key); ok {
		return sum, nil
	}
	scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, cfg.Seed+int64(key.Trial))
	scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
	sc, err := scenario.Build(scCfg)
	if err != nil {
		return runSummary{}, err
	}
	gen := faults.DefaultGenConfig(cfg.Seed+int64(key.Trial)*101+3, cfg.Horizon, cfg.NCracs, cfg.NNodes)
	gen.NodeFailures = lvl.NodeFailures
	gen.CracDegradations = lvl.CracDegradations
	// The severity axis is lost capacity only: no power steps or
	// sensor offsets, so rows differ in exactly one variable.
	gen.PowerSteps = 0
	gen.SensorOffsets = 0
	schedule, err := faults.Generate(gen)
	if err != nil {
		return runSummary{}, err
	}
	tasks := workload.GenerateTasks(sc.DC, cfg.Horizon, stats.NewRand(cfg.Seed+int64(key.Trial)*7+13))

	run := baseRun
	if key.Open {
		run.Mode = controller.OpenLoop
	} else if ck != nil {
		resume, err := ck.begin(key)
		if err != nil {
			return runSummary{}, err
		}
		run.Resume = resume
		run.Checkpoint = ck.sink(key)
	}
	r, err := controller.RunContext(ctx, sc.DC, schedule, tasks, run)
	if err != nil {
		return runSummary{}, err
	}
	sum := summarize(r)
	if err := ck.finishRun(key, sum); err != nil {
		return runSummary{}, err
	}
	return sum, nil
}

// Render prints the sweep as a table.
func (r *DegradedResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Degraded operation: open-loop vs re-optimizing (%d nodes, %d CRACs, %d trials, horizon %.0f s, epoch %.0f s)\n",
		r.Config.NNodes, r.Config.NCracs, r.Config.Trials, r.Config.Horizon, r.Config.Epoch)
	fmt.Fprintf(&b, "excess columns: worst kW above the power cap / worst °C above a redline (<= 0 means the constraint held)\n")
	fmt.Fprintf(&b, "ladder column: closed-loop epochs per degradation rung warm/cold/prev/off (see controller.Rung)\n")
	fmt.Fprintf(&b, "lp columns: closed-loop simplex solves / pivots / workspace KiB allocated (0 KiB = fully warm tableaus)\n\n")
	fmt.Fprintf(&b, "%6s %6s | %11s %9s %7s %7s | %11s %9s %7s %7s | %8s | %14s | %8s %9s %7s\n",
		"nodes", "cracs",
		"open rew/s", "open lost", "pow+kW", "inl+°C",
		"cl rew/s", "cl lost", "pow+kW", "inl+°C", "gain%", "ladder w/c/p/o",
		"lp slv", "lp piv", "lp KiB")
	for _, row := range r.Rows {
		rc := row.RungCounts
		fmt.Fprintf(&b, "%6d %6d | %11.1f %9.1f %7.2f %7.2f | %11.1f %9.1f %7.2f %7.2f | %+8.1f | %14s | %8d %9d %7.0f\n",
			row.Level.NodeFailures, row.Level.CracDegradations,
			row.OpenReward, row.OpenLost, row.OpenPowerExcess, row.OpenInletExcess,
			row.ClosedReward, row.ClosedLost, row.ClosedPowerExcess, row.ClosedInletExcess,
			row.GainPct, fmt.Sprintf("%d/%d/%d/%d", rc[0], rc[1], rc[2], rc[3]),
			row.LP.Solves, row.LP.Pivots, float64(row.LP.AllocBytes)/1024)
	}
	return b.String()
}
