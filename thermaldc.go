// Package thermaldc is a from-scratch reproduction of "Thermal-Aware
// Performance Optimization in Power Constrained Heterogeneous Data
// Centers" (Al-Qawasmeh, Pasricha, Maciejewski, Siegel — IEEE IPDPSW
// 2012). It maximizes the steady-state reward rate of an oversubscribed
// data center under a total power cap and inlet-temperature redlines by
// assigning CRAC outlet temperatures, per-core P-states and desired task
// execution rates at the data-center level, and dynamically scheduling
// arriving tasks onto cores.
//
// The package is a facade over the internal substrates:
//
//   - internal/model      — data-center, node-type, task-type and ECS models
//   - internal/power      — CMOS P-state power and CRAC CoP physics
//   - internal/thermal    — abstract heat-flow model (Tin = A·Tout)
//   - internal/layout     — hot-aisle floor plan + Appendix-B α generator
//   - internal/workload   — §VI synthetic workload generators
//   - internal/linprog    — dense two-phase bounded-variable simplex
//   - internal/assign     — the paper's three-stage technique + baseline
//   - internal/sched,sim  — second-step dynamic scheduler and event sim
//   - internal/experiments — regeneration of every table and figure
//
// Quickstart:
//
//	sc, err := thermaldc.NewScenario(thermaldc.DefaultScenario(0.3, 0.1, 42))
//	if err != nil { ... }
//	res, err := thermaldc.ThreeStage(sc, thermaldc.DefaultAssignOptions())
//	if err != nil { ... }
//	fmt.Println(res.RewardRate())
package thermaldc

import (
	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/power"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
	"thermaldc/internal/workload"
)

// Core model types.
type (
	// DataCenter is the assembled Section-III model.
	DataCenter = model.DataCenter
	// NodeType describes one server model (Table I).
	NodeType = model.NodeType
	// Node is one compute-node instance with its rack position.
	Node = model.Node
	// CRAC is one computer-room air-conditioning unit.
	CRAC = model.CRAC
	// TaskType is one workload task type (reward, deadline, arrival rate).
	TaskType = model.TaskType
	// ECS is the estimated-computational-speed tensor.
	ECS = model.ECS
	// NodeLabel is the rack-position label A–E of Table II.
	NodeLabel = model.NodeLabel
	// CoreModel is the Appendix-A CMOS power model of one core type.
	CoreModel = power.CoreModel
	// ThermalModel precomputes the heat-flow sensitivities of a data center.
	ThermalModel = thermal.Model
	// Task is a concrete task instance for the dynamic scheduler.
	Task = workload.Task
)

// Scenario construction.
type (
	// ScenarioConfig selects the size and knobs of a §VI instance.
	ScenarioConfig = scenario.Config
	// Scenario is a fully built instance (data center + thermal model +
	// power bounds).
	Scenario = scenario.Scenario
	// WorkloadConfig tunes the §VI generators.
	WorkloadConfig = workload.GenConfig
	// SearchConfig bounds the CRAC outlet-temperature search. Its
	// Parallelism field sizes the candidate-evaluation worker pool
	// (0 = GOMAXPROCS); results are bit-identical for every setting.
	SearchConfig = tempsearch.Config
)

// Assignment types.
type (
	// AssignOptions configures ψ and the temperature search.
	AssignOptions = assign.Options
	// ThreeStageResult is the paper's first-step assignment outcome.
	ThreeStageResult = assign.ThreeStageResult
	// BaselineResult is the Equation-21 baseline outcome.
	BaselineResult = assign.BaselineResult
	// Stage1Result is the relaxed power assignment of Stage 1.
	Stage1Result = assign.Stage1Result
	// Stage3Result holds the desired execution rates TC(i, k) by core
	// group: Rate(i, k) and Util(k) read them, and Dense() returns the
	// per-core TC matrix Simulate and SimulateOpts hand the scheduler.
	Stage3Result = assign.Stage3Result
	// SimResult is the second-step simulation outcome.
	SimResult = sim.Result
	// Summary is a mean ± 95% CI sample summary.
	Summary = stats.Summary
)

// Search strategies for the CRAC outlet temperatures.
const (
	// SearchCoarseToFine is the paper's multi-step discretized search.
	SearchCoarseToFine = assign.CoarseToFine
	// SearchFullGrid exhaustively scans the fine lattice.
	SearchFullGrid = assign.FullGrid
	// SearchCoordDescent optimizes one CRAC at a time.
	SearchCoordDescent = assign.CoordDescent
)

// DefaultScenario returns the paper's simulation setup (3 CRACs, 150
// nodes, Pconst halfway between the Equation-17 bounds) for the given
// static power share, Vprop and seed. Reduce NCracs/NNodes on the returned
// config for faster experiments.
func DefaultScenario(staticShare, vprop float64, seed int64) ScenarioConfig {
	return scenario.Default(staticShare, vprop, seed)
}

// NewScenario builds a deterministic scenario instance.
func NewScenario(cfg ScenarioConfig) (*Scenario, error) {
	return scenario.Build(cfg)
}

// DefaultAssignOptions returns the paper's defaults (ψ = 50,
// coarse-to-fine search to 1 °C).
func DefaultAssignOptions() AssignOptions {
	return assign.DefaultOptions()
}

// ThreeStage runs the paper's first-step assignment (temperature search +
// Stage 1 relaxed power LP + Stage 2 P-state rounding + Stage 3
// execution-rate LP) on a built scenario. The temperature search evaluates
// Stage-1 candidates through incremental per-worker solvers (one LP
// skeleton and simplex tableau, patched per candidate); set
// opts.Search.Parallelism to bound the worker pool. The result does not
// depend on the parallelism setting.
func ThreeStage(sc *Scenario, opts AssignOptions) (*ThreeStageResult, error) {
	return assign.ThreeStage(sc.DC, sc.Thermal, opts)
}

// Baseline runs the Equation-21 technique (cores at P-state 0 or off).
func Baseline(sc *Scenario, opts AssignOptions) (*BaselineResult, error) {
	return assign.Baseline(sc.DC, sc.Thermal, opts)
}

// PowerBounds solves the Equation-17 problems for an arbitrary data
// center + thermal model pair.
func PowerBounds(dc *DataCenter, tm *ThermalModel, search SearchConfig) (pmin, pmax float64, err error) {
	return assign.PowerBounds(dc, tm, search)
}

// MinPowerResult is the outcome of the §VIII dual problem.
type MinPowerResult = assign.MinPowerResult

// MinPowerForReward minimizes total power subject to a steady-state
// reward-rate floor — the paper's first future-work extension.
func MinPowerForReward(sc *Scenario, rewardFloor float64, opts AssignOptions) (*MinPowerResult, error) {
	return assign.MinPowerForReward(sc.DC, sc.Thermal, rewardFloor, opts)
}

// NewThermalModel builds the heat-flow model for a hand-assembled data
// center (NewScenario does this automatically).
func NewThermalModel(dc *DataCenter) (*ThermalModel, error) {
	return thermal.New(dc)
}

// GenerateTasks draws the Poisson task stream for the second-step
// simulation over [0, horizon) seconds.
func GenerateTasks(dc *DataCenter, horizon float64, seed int64) []Task {
	return workload.GenerateTasks(dc, horizon, stats.NewRand(seed))
}

// Simulate runs the second-step dynamic scheduler on a first-step
// assignment and a task stream.
func Simulate(dc *DataCenter, res *ThreeStageResult, tasks []Task, horizon float64) (*SimResult, error) {
	return SimulateOpts(dc, res, tasks, horizon, SimOptions{})
}

// TableINodeTypes returns the two paper server models with the given
// static share of P-state-0 core power.
func TableINodeTypes(staticShare float64) []NodeType {
	return model.TableINodeTypes(staticShare)
}

// Second-step extensions.
type (
	// SimOptions tunes a simulation run (scheduling policy, trace hook).
	SimOptions = sim.Options
	// TaskRecord is one simulation-trace entry.
	TaskRecord = sim.TaskRecord
	// EnergyReport is the post-hoc compute-energy ledger of a run.
	EnergyReport = sim.EnergyReport
	// BurstConfig parameterizes MMPP (bursty) arrivals.
	BurstConfig = workload.BurstConfig
)

// SchedPolicy chooses the core for each arriving task.
type SchedPolicy = sched.Policy

// PaperPolicy returns the paper's §V.C min-ratio rule (drop when every
// feasible core exceeds its desired rate).
func PaperPolicy() SchedPolicy { return sched.PaperPolicy{} }

// SoftRatioPolicy returns our softened variant: prefer within-quota cores
// but assign to the least-over-quota core instead of dropping.
func SoftRatioPolicy() SchedPolicy { return sched.SoftRatioPolicy{} }

// SimulateOpts is Simulate with a custom scheduling policy and/or a
// per-task trace recorder. Unless opts carries a scheduler, it builds one
// from the plan's Stage-3 core groups (or from its dense TC, for a plan
// that holds only that).
func SimulateOpts(dc *DataCenter, res *ThreeStageResult, tasks []Task, horizon float64, opts SimOptions) (*SimResult, error) {
	if opts.Scheduler == nil {
		var err error
		if s3 := res.Stage3; s3.CoreGroup != nil {
			opts.Scheduler, err = sched.New(dc, res.PStates, s3.CoreGroup, s3.Tasks, s3.GroupRate)
		} else {
			opts.Scheduler, err = sched.NewDense(dc, res.PStates, s3.TC)
		}
		if err != nil {
			return nil, err
		}
	}
	return sim.RunOpts(dc, res.PStates, nil, tasks, horizon, opts)
}

// Energy computes the compute-energy ledger for a finished run, including
// the paper's §III.C task-type power factors and an idle-power fraction
// (1 reproduces the paper's utilization-independent model).
func Energy(dc *DataCenter, res *ThreeStageResult, out *SimResult, idleFraction float64) (*EnergyReport, error) {
	return sim.Energy(dc, res.PStates, out, idleFraction)
}

// GenerateBurstyTasks draws an MMPP arrival stream (bursty extension of
// GenerateTasks).
func GenerateBurstyTasks(dc *DataCenter, horizon float64, cfg BurstConfig, seed int64) ([]Task, error) {
	return workload.GenerateBurstyTasks(dc, horizon, cfg, stats.NewRand(seed))
}
