// Command tapo (Thermal-Aware Performance Optimization) regenerates the
// paper's tables and figures and runs the extension experiments.
//
// Usage:
//
//	tapo fig6     [-trials N] [-nodes N] [-cracs N] [-seed S] [-quiet]
//	              [-search-parallelism N]
//	tapo table1   [-static F]
//	tapo table2
//	tapo fig345
//	tapo bounds   [-nodes N] [-cracs N] [-seed S] [-static F] [-vprop F]
//	tapo sweep    -kind {powercap|psi|vprop|static} [-values a,b,c] [...]
//	tapo ablation [-trials N] [-nodes N] [-cracs N]
//	tapo simulate [-trials N] [-nodes N] [-cracs N] [-horizon SEC]
//	tapo degraded [-trials N] [-nodes N] [-cracs N] [-horizon SEC]
//	              [-epoch SEC] [-faults nodes:cracs,...] [-solve-timeout DUR]
//	              [-metrics-out FILE] [-checkpoint DIR] [-resume DIR]
//	              [-trace-out FILE]
//	tapo trace    [lint] FILE...
//
// Global flags (before the command): -cpuprofile/-memprofile write pprof
// profiles. Progress, "wrote FILE" and signal notices go to stderr as
// plain lines. Per-run telemetry comes from `degraded`: -metrics-out (a
// per-epoch JSONL series, checked by cmd/tscheck) and -trace-out (a Chrome
// trace).
//
// SIGINT/SIGTERM cancel the run at the next epoch or trial boundary and
// exit 130; a second signal forces immediate exit. With `degraded
// -checkpoint DIR` every completed epoch is already durable on disk when
// the signal lands, so `degraded -resume DIR` continues the sweep where
// it stopped.
//
// Full paper scale is `-trials 25 -nodes 150 -cracs 3`; the defaults are
// reduced so every command finishes interactively.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"

	"thermaldc/internal/assign"
	"thermaldc/internal/experiments"
	"thermaldc/internal/persist"
	"thermaldc/internal/report"
	"thermaldc/internal/scenario"
	"thermaldc/internal/telemetry"
)

// Global flags — given before the command (tapo -cpuprofile cpu.out fig6 …)
// so every subcommand can be profiled the same way.
var (
	cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile = flag.String("memprofile", "", "write a heap profile to this file on exit")
)

// writeCSV writes one experiment result to path via the given writer
// function ("" = skip). The write is atomic — temp file, fsync, rename —
// so a crash or full disk never leaves a torn CSV under the final name.
func writeCSV(path string, write func(w io.Writer) error) error {
	if path == "" {
		return nil
	}
	if err := persist.WriteFileAtomic(path, write); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

func main() { os.Exit(run()) }

// run carries the real main so profile-writing defers survive the exit.
func run() int {
	flag.Usage = usage
	flag.Parse()
	if flag.NArg() < 1 {
		usage()
		return 2
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "tapo: %v\n", err)
			return 1
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "tapo: %v\n", err)
			return 1
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
			fmt.Fprintf(os.Stderr, "wrote %s\n", *cpuProfile)
		}()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tapo: %v\n", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle the heap so the profile shows retained memory
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintf(os.Stderr, "tapo: %v\n", err)
				return
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", *memProfile)
		}()
	}

	ctx, stop := signalContext()
	defer stop()

	var err error
	switch cmd {
	case "fig6":
		err = runFig6(ctx, args)
	case "table1":
		err = runTable1(args)
	case "table2":
		fmt.Println(experiments.Table2())
	case "fig345":
		err = runFig345(args)
	case "bounds":
		err = runBounds(args)
	case "sweep":
		err = runSweep(ctx, args)
	case "ablation":
		err = runAblation(ctx, args)
	case "simulate":
		err = runSimulate(ctx, args)
	case "minpower":
		err = runMinPower(args)
	case "policies":
		err = runPolicies(ctx, args)
	case "dynamic":
		err = runDynamic(ctx, args)
	case "degraded":
		err = runDegraded(ctx, args)
	case "thermal":
		err = runThermal(args)
	case "compare":
		err = runCompare(ctx, args)
	case "burst":
		err = runBurst(ctx, args)
	case "trace":
		err = runTrace(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "tapo: unknown command %q\n\n", cmd)
		usage()
		return 2
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "tapo %s: interrupted\n", cmd)
		return 130
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tapo %s: %v\n", cmd, err)
		return 1
	}
	return 0
}

// signalContext returns a context canceled by the first SIGINT/SIGTERM so
// long-running commands stop at the next epoch or trial boundary (with
// -checkpoint, everything already committed stays durable). A second
// signal forces immediate exit with the conventional interrupt status.
func signalContext() (context.Context, func()) {
	ctx, cancel := context.WithCancel(context.Background())
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s, ok := <-sigc
		if !ok {
			return
		}
		fmt.Fprintf(os.Stderr, "received %s; finishing the current step (signal again to force quit)\n", s)
		cancel()
		if _, ok := <-sigc; ok {
			fmt.Fprintln(os.Stderr, "second signal; exiting immediately")
			os.Exit(130)
		}
	}()
	return ctx, func() {
		signal.Stop(sigc)
		close(sigc)
		cancel()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `tapo — thermal-aware performance optimization experiments

commands:
  fig6      Figure 6: %% improvement of three-stage vs Equation-21 baseline
  table1    Table I: node-type parameters + derived P-state powers
  table2    Table II: EC/RC ranges per rack label
  fig345    Figures 3-5: worked reward-rate function example
  bounds    Equation 17/18: Pmin, Pmax and Pconst for one scenario
  sweep     extension sweeps: -kind powercap|psi|vprop|static
  ablation  temperature-search strategy ablation
  simulate  second-step dynamic-scheduler validation
  minpower  §VIII extension: minimize power under a reward-rate floor
  policies  second-step scheduling-policy ablation
  dynamic   epoch-reassignment extension under arrival-rate drift
  degraded  fault injection: open-loop vs re-optimizing epoch controller
  thermal   thermal map + P-state histogram after the assignment
  compare   naive ondemand clamp vs Eq. 21 vs three-stage
  burst     MMPP arrival-burstiness sweep over both scheduler policies
  trace     summarize ("trace FILE") or lint ("trace lint FILE...") a
            Chrome trace written by "degraded -trace-out"

global flags (before the command):
  -cpuprofile FILE     write a CPU profile (inspect with go tool pprof)
  -memprofile FILE     write a heap profile on exit

SIGINT/SIGTERM stop the run at the next epoch/trial boundary (exit 130);
a second signal exits immediately. "degraded -checkpoint DIR" makes every
completed epoch durable; "degraded -resume DIR" continues a killed sweep.

run "tapo <cmd> -h" for flags; paper scale is -trials 25 -nodes 150 -cracs 3
`)
}

// scaleFlags registers the shared size/seed flags.
func scaleFlags(fs *flag.FlagSet) (trials, nodes, cracs *int, seed *int64) {
	trials = fs.Int("trials", 5, "trials per cell (paper: 25)")
	nodes = fs.Int("nodes", 30, "compute nodes (paper: 150)")
	cracs = fs.Int("cracs", 2, "CRAC units (paper: 3)")
	seed = fs.Int64("seed", 1, "base random seed")
	return
}

// searchParFlag registers the CRAC temperature-search worker-pool flag.
// Results are bit-identical for every setting (see internal/tempsearch).
func searchParFlag(fs *flag.FlagSet) *int {
	return fs.Int("search-parallelism", 0, "workers per temperature search (0 = GOMAXPROCS; any value gives identical results)")
}

func runFig6(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("fig6", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	quiet := fs.Bool("quiet", false, "suppress per-trial progress")
	csvPath := fs.String("csv", "", "also write per-trial rows to this CSV file")
	simHorizon := fs.Float64("sim", 0, "also simulate both techniques over this horizon (s) and report realized improvement")
	simPaper := fs.Bool("sim-paper-policy", false, "use the paper's strict min-ratio policy in the simulation")
	searchPar := searchParFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultFig6Config()
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	cfg.SimHorizon = *simHorizon
	cfg.SimPaperPolicy = *simPaper
	cfg.Options.Search.Parallelism = *searchPar
	progress := func(line string) { fmt.Fprintln(os.Stderr, line) }
	if *quiet {
		progress = nil
	}
	res, err := experiments.Figure6Context(ctx, cfg, progress)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return writeCSV(*csvPath, func(w io.Writer) error { return report.Fig6CSV(w, res) })
}

func runTable1(args []string) error {
	fs := flag.NewFlagSet("table1", flag.ExitOnError)
	static := fs.Float64("static", 0.3, "static share of P-state-0 core power")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fmt.Println(experiments.Table1(*static))
	return nil
}

func runFig345(args []string) error {
	fs := flag.NewFlagSet("fig345", flag.ExitOnError)
	csvPath := fs.String("csv", "", "also write function samples to this CSV file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	series, err := experiments.Figures345()
	if err != nil {
		return err
	}
	fmt.Println(experiments.RenderFig345(series))
	return writeCSV(*csvPath, func(w io.Writer) error { return report.Fig345CSV(w, series) })
}

func runBounds(args []string) error {
	fs := flag.NewFlagSet("bounds", flag.ExitOnError)
	_, nodes, cracs, seed := scaleFlags(fs)
	static := fs.Float64("static", 0.3, "static power share")
	vprop := fs.Float64("vprop", 0.1, "ECS proportionality variation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := scenario.Default(*static, *vprop, *seed)
	cfg.NNodes, cfg.NCracs = *nodes, *cracs
	sc, err := scenario.Build(cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Equation 17/18 power bounds (%d nodes, %d CRACs, seed %d)\n", *nodes, *cracs, *seed)
	fmt.Printf("  Pmin   = %10.2f kW   (all cores off)\n", sc.Pmin)
	fmt.Printf("  Pmax   = %10.2f kW   (all cores at P-state 0)\n", sc.Pmax)
	fmt.Printf("  Pconst = %10.2f kW   ((Pmin+Pmax)/2)\n", sc.DC.Pconst)
	return nil
}

func parseValues(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad value %q: %w", p, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func runSweep(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("sweep", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	kind := fs.String("kind", "powercap", "powercap | psi | vprop | static | hetero")
	csvPath := fs.String("csv", "", "also write sweep points to this CSV file")
	valuesFlag := fs.String("values", "", "comma-separated sweep values (defaults per kind)")
	static := fs.Float64("static", 0.3, "static power share (non-swept)")
	vprop := fs.Float64("vprop", 0.3, "Vprop (non-swept)")
	searchPar := searchParFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	defaults := map[string][]float64{
		"powercap": {0.2, 0.35, 0.5, 0.65, 0.8},
		"psi":      {12.5, 25, 50, 75, 100},
		"vprop":    {0.05, 0.1, 0.2, 0.3, 0.4},
		"static":   {0.1, 0.2, 0.3, 0.4},
		"hetero":   {0.02, 0.25, 0.5, 0.75, 0.98},
	}
	values := defaults[*kind]
	if *valuesFlag != "" {
		var err error
		if values, err = parseValues(*valuesFlag); err != nil {
			return err
		}
	}
	if values == nil {
		return fmt.Errorf("unknown sweep kind %q", *kind)
	}
	cfg := experiments.DefaultSweepConfig(values)
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	cfg.StaticShare, cfg.Vprop = *static, *vprop
	cfg.Options.Search.Parallelism = *searchPar
	var res *experiments.SweepResult
	var err error
	switch *kind {
	case "powercap":
		res, err = experiments.PowerCapSweepContext(ctx, cfg)
	case "psi":
		res, err = experiments.PsiSweepContext(ctx, cfg)
	case "vprop":
		res, err = experiments.VpropSweepContext(ctx, cfg)
	case "static":
		res, err = experiments.StaticShareSweepContext(ctx, cfg)
	case "hetero":
		res, err = experiments.HeterogeneitySweepContext(ctx, cfg)
	}
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return writeCSV(*csvPath, func(w io.Writer) error { return report.SweepCSV(w, res) })
}

func runAblation(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("ablation", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	searchPar := searchParFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultSweepConfig(nil)
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	cfg.Options.Search.Parallelism = *searchPar
	res, err := experiments.StrategyAblationContext(ctx, cfg, []assign.Strategy{
		assign.CoarseToFine, assign.FullGrid, assign.CoordDescent,
	})
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func runMinPower(args []string) error {
	fs := flag.NewFlagSet("minpower", flag.ExitOnError)
	_, nodes, cracs, seed := scaleFlags(fs)
	static := fs.Float64("static", 0.3, "static power share")
	vprop := fs.Float64("vprop", 0.3, "ECS proportionality variation")
	fracs := fs.String("floors", "0.3,0.5,0.7,0.9", "reward floors as fractions of the Pconst-optimal reward")
	searchPar := searchParFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	values, err := parseValues(*fracs)
	if err != nil {
		return err
	}
	cfg := scenario.Default(*static, *vprop, *seed)
	cfg.NNodes, cfg.NCracs = *nodes, *cracs
	sc, err := scenario.Build(cfg)
	if err != nil {
		return err
	}
	opts := assign.DefaultOptions()
	opts.Search.Parallelism = *searchPar
	primal, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
	if err != nil {
		return err
	}
	fmt.Printf("§VIII extension — minimize power s.t. reward floor (%d nodes, %d CRACs)\n", *nodes, *cracs)
	fmt.Printf("Primal at Pconst %.1f kW: reward %.1f/s\n\n", sc.DC.Pconst, primal.RewardRate())
	fmt.Printf("%-10s %-14s %-14s %-14s %-12s\n", "floor", "reward floor", "relaxed kW", "integer kW", "achieved")
	for _, f := range values {
		floor := f * primal.RewardRate()
		res, err := assign.MinPowerForReward(sc.DC, sc.Thermal, floor, opts)
		if err != nil {
			fmt.Printf("%-10.2f infeasible: %v\n", f, err)
			continue
		}
		fmt.Printf("%-10.2f %-14.1f %-14.1f %-14.1f %-12.1f\n",
			f, floor, res.RelaxedPower, res.IntegerPower, res.Stage3.RewardRate)
	}
	return nil
}

func runPolicies(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("policies", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	horizon := fs.Float64("horizon", 60, "arrival horizon in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultSweepConfig(nil)
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	res, err := experiments.PolicyAblationContext(ctx, cfg, *horizon)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func runDynamic(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("dynamic", flag.ExitOnError)
	_, nodes, cracs, seed := scaleFlags(fs)
	horizon := fs.Float64("horizon", 120, "arrival horizon in seconds")
	epoch := fs.Float64("epoch", 30, "reassignment interval in seconds")
	amp := fs.Float64("amplitude", 0.8, "arrival-rate drift amplitude")
	period := fs.Float64("period", 120, "drift period in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultDynamicConfig(*seed)
	cfg.NNodes, cfg.NCracs = *nodes, *cracs
	cfg.Horizon, cfg.Epoch, cfg.Amplitude, cfg.Period = *horizon, *epoch, *amp, *period
	res, err := experiments.DynamicReassignmentContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

// parseLevels parses a "-faults" spec like "2:1,4:2" into severity levels
// (failed nodes : degraded CRACs per level).
func parseLevels(s string) ([]experiments.DegradedLevel, error) {
	var out []experiments.DegradedLevel
	for _, part := range strings.Split(s, ",") {
		var lvl experiments.DegradedLevel
		nums := strings.Split(strings.TrimSpace(part), ":")
		if len(nums) != 2 {
			return nil, fmt.Errorf("bad fault level %q (want nodes:cracs)", part)
		}
		var err error
		if lvl.NodeFailures, err = strconv.Atoi(nums[0]); err != nil {
			return nil, fmt.Errorf("bad fault level %q: %w", part, err)
		}
		if lvl.CracDegradations, err = strconv.Atoi(nums[1]); err != nil {
			return nil, fmt.Errorf("bad fault level %q: %w", part, err)
		}
		if lvl.NodeFailures < 0 || lvl.CracDegradations < 0 {
			return nil, fmt.Errorf("bad fault level %q: counts must be non-negative", part)
		}
		out = append(out, lvl)
	}
	return out, nil
}

func runDegraded(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("degraded", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	horizon := fs.Float64("horizon", 60, "arrival horizon in seconds")
	epoch := fs.Float64("epoch", 15, "re-optimization epoch in seconds")
	faultsFlag := fs.String("faults", "0:0,2:0,2:1,4:1,6:2", "severity levels as failedNodes:degradedCracs, comma-separated")
	solveTimeout := fs.Duration("solve-timeout", 0, "per-epoch solve deadline (e.g. 200ms); 0 disables; expired budgets engage the degradation ladder")
	metricsOut := fs.String("metrics-out", "", "write a per-epoch JSONL time series (one run per trial×mode) to this file")
	checkpointDir := fs.String("checkpoint", "", "journal every completed epoch to this directory; a killed sweep resumes with -resume")
	resumeDir := fs.String("resume", "", "resume a killed sweep from this checkpoint directory (config must match)")
	crashAfter := fs.Int("crash-after", 0, "TESTING: exit hard right after the Nth durable commit (requires -checkpoint)")
	traceOut := fs.String("trace-out", "", "write a Chrome/Perfetto trace of the solve pipeline to this file (open at ui.perfetto.dev)")
	traceCap := fs.Int("trace-cap", 0, "span ring capacity for -trace-out (0 = default; the trace keeps the most recent spans)")
	searchPar := searchParFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	levels, err := parseLevels(*faultsFlag)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultDegradedConfig(*seed)
	cfg.Trials, cfg.NNodes, cfg.NCracs = *trials, *nodes, *cracs
	cfg.Horizon, cfg.Epoch = *horizon, *epoch
	cfg.Levels = levels
	cfg.SolveTimeout = *solveTimeout
	cfg.Options.Search.Parallelism = *searchPar
	cfg.CheckpointDir = *checkpointDir
	if *resumeDir != "" {
		if *checkpointDir != "" && *checkpointDir != *resumeDir {
			return fmt.Errorf("-checkpoint %q and -resume %q name different directories", *checkpointDir, *resumeDir)
		}
		cfg.CheckpointDir = *resumeDir
		cfg.Resume = true
	}
	if *crashAfter > 0 {
		if cfg.CheckpointDir == "" {
			return fmt.Errorf("-crash-after requires -checkpoint")
		}
		n := *crashAfter
		cfg.CommitHook = func(commits int) {
			if commits == n {
				fmt.Fprintf(os.Stderr, "crash-after: simulating a crash commit=%d\n", commits)
				os.Exit(7)
			}
		}
	}
	if *metricsOut != "" || *traceOut != "" {
		cfg.Recorder = telemetry.NewRecorder()
	}
	var mf *persist.AtomicFile
	if *metricsOut != "" {
		// The series streams into a temp file and only takes the final
		// name on a clean finish, so a crash never leaves a torn JSONL.
		mf, err = persist.NewAtomicFile(*metricsOut)
		if err != nil {
			return err
		}
		defer mf.Abort() // no-op after Commit; discards a torn series on error
		cfg.Recorder.Series = telemetry.NewJSONLWriter(mf)
	}
	if *traceOut != "" {
		cfg.Recorder.Trace = telemetry.NewTracer(*traceCap)
	}
	res, err := experiments.DegradedSweepContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	if mf != nil {
		if err := mf.Commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *metricsOut)
	}
	if *traceOut != "" {
		// Same atomic discipline as -metrics-out: the trace lands under its
		// final name only when fully written.
		tf, tfErr := persist.NewAtomicFile(*traceOut)
		if tfErr != nil {
			return tfErr
		}
		defer tf.Abort()
		if err := cfg.Recorder.Tracer().WriteChrome(tf); err != nil {
			return err
		}
		if err := tf.Commit(); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", *traceOut)
	}
	return nil
}

func runCompare(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	static := fs.Float64("static", 0.3, "static power share")
	vprop := fs.Float64("vprop", 0.3, "ECS proportionality variation")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultSweepConfig(nil)
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	cfg.StaticShare, cfg.Vprop = *static, *vprop
	res, err := experiments.TechniqueComparisonContext(ctx, cfg)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func runBurst(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("burst", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	horizon := fs.Float64("horizon", 60, "arrival horizon in seconds")
	values := fs.String("values", "0,0.25,0.5,0.75,1", "burst factors")
	if err := fs.Parse(args); err != nil {
		return err
	}
	vs, err := parseValues(*values)
	if err != nil {
		return err
	}
	cfg := experiments.DefaultSweepConfig(vs)
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	res, err := experiments.BurstinessSweepContext(ctx, cfg, *horizon)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func runThermal(args []string) error {
	fs := flag.NewFlagSet("thermal", flag.ExitOnError)
	_, nodes, cracs, seed := scaleFlags(fs)
	static := fs.Float64("static", 0.3, "static power share")
	vprop := fs.Float64("vprop", 0.3, "ECS proportionality variation")
	psi := fs.Float64("psi", 50, "ψ parameter")
	searchPar := searchParFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	scCfg := scenario.Default(*static, *vprop, *seed)
	scCfg.NNodes, scCfg.NCracs = *nodes, *cracs
	opts := assign.DefaultOptions()
	opts.Psi = *psi
	opts.Search.Parallelism = *searchPar
	res, err := experiments.ThermalMap(scCfg, opts)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}

func runSimulate(ctx context.Context, args []string) error {
	fs := flag.NewFlagSet("simulate", flag.ExitOnError)
	trials, nodes, cracs, seed := scaleFlags(fs)
	horizon := fs.Float64("horizon", 60, "arrival horizon in seconds")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg := experiments.DefaultSweepConfig(nil)
	cfg.Trials, cfg.NNodes, cfg.NCracs, cfg.BaseSeed = *trials, *nodes, *cracs, *seed
	res, err := experiments.SchedulerValidationContext(ctx, cfg, *horizon)
	if err != nil {
		return err
	}
	fmt.Println(res.Render())
	return nil
}
