package main

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/controller"
	"thermaldc/internal/experiments"
	"thermaldc/internal/faults"
	"thermaldc/internal/layout"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/thermal"
	"thermaldc/internal/workload"
	"thermaldc/internal/zones"
)

// verifyTol is the assign.Verify tolerance every plan is checked at (the
// controller's default).
const verifyTol = 1e-6

// scale sizes the workloads. "paper" is the benchmark; "tiny" keeps the
// same code paths at a size the package tests can afford.
type scale struct {
	nodes, cracs int     // fig6-trial and closed-loop floor
	horizon      float64 // closed-loop simulated window (s)
	nodeFailures int     // closed-loop node failures per schedule
	zones        int     // fleet-capstep zone count
	zoneNodes    int     // fleet-capstep nodes per zone (2 CRACs each)
}

var scales = map[string]scale{
	"paper": {nodes: 150, cracs: 3, horizon: 20, nodeFailures: 3, zones: 10, zoneNodes: 100},
	"tiny":  {nodes: 10, cracs: 2, horizon: 20, nodeFailures: 1, zones: 2, zoneNodes: 10},
}

// instance is one workload, set up and ready for timed ops.
type instance interface {
	// attach wires rec (nil for the untraced run) into every layer that
	// accepts a telemetry recorder.
	attach(rec *telemetry.Recorder) error
	// op runs op i, timing each public layer call on c, and returns the
	// plan reward rate.
	op(i int, c *clock) (reward float64, err error)
	// check validates the outputs of the op just run; it is not timed.
	check() error
	// observe records the per-layer counters of the op just run in a
	// traced run; it may re-time layer calls outside the op.
	observe(c *clock)
	// layerMetrics returns the workload's per-layer metrics so far.
	layerMetrics() map[string]float64
}

// workloadSpec names a workload and how to set it up from a seed.
type workloadSpec struct {
	name string
	// inputs is the minimum number of ops a run makes; reward_rate is the
	// mean over ops 0..inputs-1, so it depends on the seed alone. Ops of
	// closed-loop cycle through this many seeded inputs; every fig6-trial
	// op is a new trial and every fleet-capstep op a new cap.
	inputs int
	setup  func(seed int64, sc scale, inputs int) (instance, error)
}

var workloads = []workloadSpec{
	{name: "fig6-trial", inputs: 9, setup: newFig6Trial},
	{name: "closed-loop", inputs: 12, setup: newClosedLoop},
	{name: "fleet-capstep", inputs: 8, setup: newFleetCapStep},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// samples collects per-op observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

func (s samples) sum(name string) float64 {
	t := 0.0
	for _, v := range s[name] {
		t += v
	}
	return t
}

func (s samples) mean(name string) float64 {
	if len(s[name]) == 0 {
		return 0
	}
	return s.sum(name) / float64(len(s[name]))
}

func (s samples) median(name string) float64 { return median(s[name]) }

// ratio returns sum(num)/sum(den), 0 when the denominator is 0.
func (s samples) ratio(num, den string) float64 {
	d := s.sum(den)
	if d == 0 {
		return 0
	}
	return s.sum(num) / d
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// planOf wraps a baseline assignment in the shape assign.Verify checks.
func planOf(dc *model.DataCenter, bl *assign.BaselineResult) *assign.ThreeStageResult {
	ps, tc := bl.Assignment(dc)
	return &assign.ThreeStageResult{
		Stage1:  &assign.Stage1Result{CracOut: bl.CracOut},
		PStates: ps,
		Stage3:  &assign.Stage3Result{TC: tc},
	}
}

func verifyPlan(what string, dc *model.DataCenter, tm *thermal.Model, plan *assign.ThreeStageResult) error {
	if v := assign.Verify(dc, tm, plan, verifyTol); len(v) > 0 {
		return fmt.Errorf("%s plan fails assign.Verify: %d violations, first %v", what, len(v), v[0])
	}
	return nil
}

// ---------------------------------------------------------------------------
// fig6-trial: one paper-scale Figure-6 trial per op.

type fig6Trial struct {
	seed  int64
	sc    scale
	rec   *telemetry.Recorder
	s     samples
	built *scenario.Scenario
	bl    *assign.BaselineResult
	best  *assign.ThreeStageResult
	evals int
	lp    linprog.Stats
}

func newFig6Trial(seed int64, sc scale, _ int) (instance, error) {
	w := &fig6Trial{seed: seed, sc: sc, s: samples{}}
	// Warm-up: one reduced trial runs every layer's lazy set-up before the
	// timed ops.
	warm := &fig6Trial{seed: seed, sc: scale{nodes: 40, cracs: 2}, s: samples{}}
	if _, err := warm.op(0, &clock{epoch: time.Now()}); err != nil {
		return nil, fmt.Errorf("fig6-trial warm-up: %w", err)
	}
	return w, nil
}

func (w *fig6Trial) attach(rec *telemetry.Recorder) error { w.rec = rec; return nil }

// config is op i's scenario: the paper's three Figure-6 groups in
// rotation, each trial on its own seed.
func (w *fig6Trial) config(i int) scenario.Config {
	groups := experiments.PaperGroups()
	g := groups[i%len(groups)]
	cfg := scenario.Default(g.StaticShare, g.Vprop, w.seed*1000+int64(i)+1)
	cfg.NNodes, cfg.NCracs = w.sc.nodes, w.sc.cracs
	return cfg
}

func (w *fig6Trial) op(i int, c *clock) (float64, error) {
	w.built, w.bl, w.best, w.evals, w.lp = nil, nil, nil, 0, linprog.Stats{}
	err := c.time("scenario.build", func() (err error) {
		w.built, err = scenario.Build(w.config(i))
		return err
	})
	if err != nil {
		return 0, err
	}
	dc, tm := w.built.DC, w.built.Thermal
	opts := assign.DefaultOptions()
	opts.Recorder = w.rec
	err = c.time("assign.baseline", func() (err error) {
		w.bl, err = assign.Baseline(dc, tm, opts)
		return err
	})
	if err != nil {
		return 0, err
	}
	w.evals += w.bl.SearchEvals
	for _, psi := range []float64{25, 50} {
		opts.Psi = psi
		var res *assign.ThreeStageResult
		err := c.time("assign.threestage", func() error {
			ts, err := assign.NewThreeStageSolver(dc, tm, opts)
			if err != nil {
				return err
			}
			if res, err = ts.Solve(); err != nil {
				return err
			}
			w.lp.Add(ts.TakeLPStats())
			return nil
		})
		if err != nil {
			return 0, fmt.Errorf("three-stage ψ=%g: %w", psi, err)
		}
		w.evals += res.SearchEvals
		if w.best == nil || res.RewardRate() > w.best.RewardRate() {
			w.best = res
		}
	}
	return w.best.RewardRate(), nil
}

func (w *fig6Trial) check() error {
	dc, tm := w.built.DC, w.built.Thermal
	if err := verifyPlan("baseline", dc, tm, planOf(dc, w.bl)); err != nil {
		return err
	}
	return verifyPlan("three-stage", dc, tm, w.best)
}

func (w *fig6Trial) observe(c *clock) {
	w.s.add("scenario.build_ms", ms(c.sum("scenario.build")))
	w.s.add("assign.baseline_ms", ms(c.sum("assign.baseline")))
	w.s.add("assign.threestage_ms", ms(c.sum("assign.threestage")))
	w.s.add("evals", float64(w.evals))
	w.s.add("solves", float64(w.lp.Solves))
	w.s.add("pivots", float64(w.lp.Pivots))
	// Re-time the layout LP on a copy of the built floor, so the Appendix-B
	// share of scenario.build shows on its own.
	dc := *w.built.DC
	t0 := time.Now()
	if err := layout.GenerateAlpha(&dc, w.built.Config.Layout, stats.NewRand(w.built.Config.Seed)); err == nil {
		w.s.add("layout.alpha_ms", ms(time.Since(t0)))
	}
}

func (w *fig6Trial) layerMetrics() map[string]float64 {
	return map[string]float64{
		"scenario.build_ms":        w.s.median("scenario.build_ms"),
		"layout.alpha_ms":          w.s.median("layout.alpha_ms"),
		"assign.baseline_ms":       w.s.median("assign.baseline_ms"),
		"assign.threestage_ms":     w.s.median("assign.threestage_ms"),
		"tempsearch.evals_per_op":  w.s.mean("evals"),
		"linprog.solves_per_op":    w.s.mean("solves"),
		"linprog.pivots_per_op":    w.s.mean("pivots"),
		"linprog.pivots_per_solve": w.s.ratio("pivots", "solves"),
	}
}

// ---------------------------------------------------------------------------
// closed-loop: one controller.RunContext run per op.

type closedLoopInput struct {
	schedule faults.Schedule
	tasks    []workload.Task
}

type closedLoop struct {
	sc     scale
	dc     *model.DataCenter
	inputs []closedLoopInput
	rec    *telemetry.Recorder
	s      samples
	cur    int
	res    *controller.Result
}

// closedLoopEpoch is the controller's re-planning grid (s).
const closedLoopEpoch = 15

// closedLoopPlantSeed fixes the operated data center: like an operator's
// floor, it stays the same from run to run, and the run seed drives what
// happens to it — the task stream and the fault schedule.
const closedLoopPlantSeed = 1

func newClosedLoop(seed int64, sc scale, inputs int) (instance, error) {
	built, err := scenario.Build(func() scenario.Config {
		cfg := scenario.Default(0.3, 0.1, closedLoopPlantSeed)
		cfg.NNodes, cfg.NCracs = sc.nodes, sc.cracs
		return cfg
	}())
	if err != nil {
		return nil, err
	}
	w := &closedLoop{sc: sc, dc: built.DC, s: samples{}}
	for k := 0; k < inputs; k++ {
		s := seed*7919 + int64(k)
		gen := faults.DefaultGenConfig(s+1, sc.horizon, sc.cracs, sc.nodes)
		gen.NodeFailures = sc.nodeFailures
		gen.PowerSteps = 2
		// Narrow magnitude bands keep every schedule equally severe, so
		// runs differ in when faults strike, not in how hard.
		gen.CapLo, gen.CapHi = 0.8, 0.9
		gen.DegradeLo, gen.DegradeHi = 0.7, 0.8
		schedule, err := faults.Generate(gen)
		if err != nil {
			return nil, err
		}
		tasks := workload.GenerateTasks(built.DC, sc.horizon, stats.NewRand(s+2))
		w.inputs = append(w.inputs, closedLoopInput{schedule: schedule, tasks: tasks})
	}
	return w, nil
}

func (w *closedLoop) attach(rec *telemetry.Recorder) error { w.rec = rec; return nil }

func (w *closedLoop) op(i int, c *clock) (float64, error) {
	w.cur = i % len(w.inputs)
	in := w.inputs[w.cur]
	cfg := controller.DefaultConfig(w.sc.horizon, closedLoopEpoch)
	cfg.Recorder = w.rec
	err := c.time("controller.run", func() (err error) {
		w.res, err = controller.RunContext(context.Background(), w.dc, in.schedule, in.tasks, cfg)
		return err
	})
	if err != nil {
		return 0, err
	}
	return w.res.RewardRate, nil
}

func (w *closedLoop) check() error {
	r := w.res
	switch {
	case r.Violations != 0:
		return fmt.Errorf("closed loop: %d plan violations", r.Violations)
	case r.MaxPowerExcess > 0:
		return fmt.Errorf("closed loop: power cap exceeded by %g kW", r.MaxPowerExcess)
	case r.MaxInletExcess > 0:
		return fmt.Errorf("closed loop: inlet redline exceeded by %g °C", r.MaxInletExcess)
	}
	return nil
}

func (w *closedLoop) observe(*clock) {
	r := w.res
	var solve time.Duration
	for _, ep := range r.Epochs {
		if ep.Resolved {
			solve += ep.SolveWall
		}
	}
	w.s.add("solve_ms", ms(solve))
	evals := 0
	for _, ep := range r.Epochs {
		if ep.Resolved && ep.Plan != nil {
			evals += ep.Plan.SearchEvals
		}
	}
	w.s.add("evals", float64(evals))
	w.s.add("resolves", float64(r.Resolves))
	w.s.add("warm", float64(r.RungCounts[controller.RungWarm]))
	w.s.add("solves", float64(r.LP.Solves))
	w.s.add("pivots", float64(r.LP.Pivots))
	if len(r.Epochs) > 0 {
		// Replay the op's initial plan and whole task stream through the
		// simulator, outside the op: the sim/sched layer's cost on its own.
		plan := r.Epochs[0].Plan
		tasks := w.inputs[w.cur].tasks
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := sim.Run(w.dc, plan.PStates, plan.Stage3.TC, tasks, w.sc.horizon)
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		if err == nil {
			w.s.add("sim.run_ms", ms(d))
			w.s.add("sim.tasks", float64(len(tasks)))
			w.s.add("sim.s", d.Seconds())
			w.s.add("sim.alloc_mb", float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
			w.s.add("sim.dropped", float64(out.Dropped))
		}
	}
}

func (w *closedLoop) layerMetrics() map[string]float64 {
	return map[string]float64{
		"controller.solve_ms_per_epoch": w.s.ratio("solve_ms", "resolves"),
		"controller.resolves_per_op":    w.s.mean("resolves"),
		"controller.rung_warm_frac":     w.s.ratio("warm", "resolves"),
		"sim.run_ms":                    w.s.median("sim.run_ms"),
		"sim.tasks_per_s":               w.s.ratio("sim.tasks", "sim.s"),
		"sim.alloc_mb":                  w.s.median("sim.alloc_mb"),
		"sim.drop_frac":                 w.s.ratio("sim.dropped", "sim.tasks"),
		"tempsearch.evals_per_op":       w.s.mean("evals"),
		"linprog.solves_per_op":         w.s.mean("solves"),
		"linprog.pivots_per_op":         w.s.mean("pivots"),
		"linprog.pivots_per_solve":      w.s.ratio("pivots", "solves"),
	}
}

// ---------------------------------------------------------------------------
// fleet-capstep: one power-cap step on a zoned fleet per op.

type fleetCapStep struct {
	dc     *model.DataCenter
	tm     *thermal.Model
	part   *zones.Partition
	caps   []float64
	out    []float64
	zs     *zones.Solver
	ts     *assign.ThreeStageSolver
	s      samples
	cap    float64
	s1     *assign.Stage1Result
	plan   *assign.ThreeStageResult
	viol   []assign.Violation
	stats  zones.Stats
	lpLast linprog.Stats
}

// fleetOutlet is the fixed CRAC outlet temperature (°C) of every cap step.
const fleetOutlet = 15

// fleetCapBand is the half-width of the cap band around the base cap.
const fleetCapBand = 0.05

// fleetCaps is the length of the seeded cap sequence ops step through.
const fleetCaps = 1024

// fleetSeed fixes the fleet (the one BenchmarkFleetStage1 solves); the run
// seed drives the sequence of cap steps.
const fleetSeed = 2

func newFleetCapStep(seed int64, sc scale, inputs int) (instance, error) {
	f, err := zones.BuildFleet(zones.FleetConfig{
		Zones:        sc.zones,
		NodesPerZone: sc.zoneNodes,
		CracsPerZone: 2,
		Seed:         fleetSeed,
	})
	if err != nil {
		return nil, err
	}
	dc, err := f.Assemble()
	if err != nil {
		return nil, err
	}
	tm, err := thermal.New(dc)
	if err != nil {
		return nil, err
	}
	part, err := zones.PartitionDataCenter(dc, 0)
	if err != nil {
		return nil, err
	}
	w := &fleetCapStep{dc: dc, tm: tm, part: part, s: samples{}}
	// Every op steps to a new cap, so a run's median spans many steps
	// rather than a few caps repeated; the first inputs caps carry the
	// reference rewards.
	rng := stats.NewRand(seed*7919 + 5)
	for k := 0; k < max(inputs, fleetCaps); k++ {
		w.caps = append(w.caps, dc.Pconst*(1+stats.Uniform(rng, -fleetCapBand, fleetCapBand)))
	}
	w.out = make([]float64, dc.NCRAC())
	for i := range w.out {
		w.out[i] = fleetOutlet
	}
	if err := w.attach(nil); err != nil {
		return nil, err
	}
	return w, nil
}

// attach builds the zone solver and the Stages 2–3 solver (the recorder is
// wired at construction) and primes them with one solve at the base cap,
// so every timed op is a warm cap step.
func (w *fleetCapStep) attach(rec *telemetry.Recorder) error {
	zs, err := zones.NewSolverFromPartition(w.part, w.tm, zones.Config{
		Method:    linprog.MethodRevised,
		WarmStart: true,
		Recorder:  rec,
	})
	if err != nil {
		return err
	}
	opts := assign.DefaultOptions()
	opts.Method = linprog.MethodRevised
	opts.WarmStart = true
	opts.Recorder = rec
	ts, err := assign.NewThreeStageSolver(w.dc, w.tm, opts)
	if err != nil {
		return err
	}
	s1, err := zs.Solve(context.Background(), w.out)
	if err != nil {
		return fmt.Errorf("fleet priming solve: %w", err)
	}
	if _, err := ts.FinishFromStage1(context.Background(), s1); err != nil {
		return fmt.Errorf("fleet priming finish: %w", err)
	}
	zs.TakeLPStats()
	ts.TakeLPStats()
	w.zs, w.ts = zs, ts
	return nil
}

func (w *fleetCapStep) op(i int, c *clock) (float64, error) {
	ctx := context.Background()
	w.cap = w.caps[i%len(w.caps)]
	w.dc.Pconst = w.cap
	err := c.time("zones.solve", func() (err error) {
		w.s1, err = w.zs.Solve(ctx, w.out)
		return err
	})
	if err != nil {
		return 0, err
	}
	w.stats = w.zs.LastStats()
	err = c.time("assign.finish", func() (err error) {
		w.plan, err = w.ts.FinishFromStage1(ctx, w.s1)
		return err
	})
	if err != nil {
		return 0, err
	}
	c.time("assign.verify", func() error {
		w.viol = assign.Verify(w.dc, w.tm, w.plan, verifyTol)
		return nil
	})
	return w.plan.RewardRate(), nil
}

func (w *fleetCapStep) check() error {
	if !w.s1.Feasible {
		return fmt.Errorf("fleet: Stage 1 infeasible at cap %g kW", w.cap)
	}
	if w.s1.LinearPower > w.cap+verifyTol*(1+w.cap) {
		return fmt.Errorf("fleet: Stage-1 linear power %g kW above cap %g kW", w.s1.LinearPower, w.cap)
	}
	if len(w.viol) > 0 {
		return fmt.Errorf("fleet plan fails assign.Verify: %d violations, first %v", len(w.viol), w.viol[0])
	}
	return nil
}

func (w *fleetCapStep) observe(c *clock) {
	lp := w.zs.TakeLPStats()
	lp.Add(w.ts.TakeLPStats())
	w.s.add("zones.solve_ms", ms(c.sum("zones.solve")))
	w.s.add("assign.finish_ms", ms(c.sum("assign.finish")))
	w.s.add("assign.verify_ms", ms(c.sum("assign.verify")))
	w.s.add("rounds", float64(w.stats.Rounds))
	w.s.add("zone_solves", float64(w.stats.ZoneSolves))
	w.s.add("fallback", b2f(w.stats.Fallback))
	w.s.add("warm_hits", float64(lp.WarmHits))
	w.s.add("warm_attempts", float64(lp.WarmAttempts))
	w.s.add("solves", float64(lp.Solves))
	w.s.add("pivots", float64(lp.Pivots))
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

func (w *fleetCapStep) layerMetrics() map[string]float64 {
	return map[string]float64{
		"zones.solve_ms":           w.s.median("zones.solve_ms"),
		"zones.rounds_per_op":      w.s.mean("rounds"),
		"zones.zone_solves_per_op": w.s.mean("zone_solves"),
		"zones.fallback_frac":      w.s.mean("fallback"),
		"linprog.warm_hit_frac":    w.s.ratio("warm_hits", "warm_attempts"),
		"linprog.solves_per_op":    w.s.mean("solves"),
		"linprog.pivots_per_op":    w.s.mean("pivots"),
		"linprog.pivots_per_solve": w.s.ratio("pivots", "solves"),
		"assign.finish_ms":         w.s.median("assign.finish_ms"),
		"assign.verify_ms":         w.s.median("assign.verify_ms"),
	}
}

// ---------------------------------------------------------------------------

// median returns the middle value of xs (the mean of the two middle values
// for even lengths), 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest percentile of xs with at least ten values above
// it, and that percentile. With ten values or fewer no such percentile
// exists; the minimum (percentile 0) is returned.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := len(s) - 10 // 1-based rank with exactly ten values above it
	if k < 1 {
		return s[0], 0
	}
	return s[k-1], 100 * float64(k) / float64(len(s))
}
