// Benchmarks regenerating each of the paper's tables and figures, plus
// component and ablation benches. Table/figure benches run at reduced
// scale so `go test -bench=.` stays interactive; the cmd/tapo CLI runs the
// full paper scale (25 trials, 150 nodes, 3 CRACs).
package thermaldc_test

import (
	"context"
	"runtime"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/experiments"
	"thermaldc/internal/layout"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/scenario"
	"thermaldc/internal/sched"
	"thermaldc/internal/sim"
	"thermaldc/internal/stats"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
	"thermaldc/internal/workload"
)

// benchScenario caches one small instance across benchmarks.
var benchSC *scenario.Scenario

func getScenario(b *testing.B) *scenario.Scenario {
	b.Helper()
	if benchSC == nil {
		cfg := scenario.Default(0.3, 0.3, 1)
		cfg.NCracs = 2
		cfg.NNodes = 20
		sc, err := scenario.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchSC = sc
	}
	return benchSC
}

// BenchmarkTable1PowerModel regenerates Table I: the Appendix-A derivation
// of per-P-state core powers for both server models at both static shares.
func BenchmarkTable1PowerModel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		for _, share := range []float64{0.3, 0.2} {
			for _, nt := range model.TableINodeTypes(share) {
				_ = nt.CorePowers()
			}
		}
	}
}

// BenchmarkTable2AlphaGeneration regenerates the Table-II-driven
// Appendix-B cross-interference matrix for a 4-rack layout. Every iteration
// re-seeds the objective, so each solves the same LP whatever b.N is.
func BenchmarkTable2AlphaGeneration(b *testing.B) {
	sc := getScenario(b)
	cfg := sc.Config.Layout
	dc := *sc.DC // shallow copy; GenerateAlpha replaces Alpha only
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := layout.GenerateAlpha(&dc, cfg, stats.NewRand(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3RRFunction regenerates the Figure-3 reward-rate function.
func BenchmarkFig3RRFunction(b *testing.B) {
	sc := getScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = assign.RR(sc.DC, 0, 0)
	}
}

// BenchmarkFig4Fig5ARR regenerates the deadline-aware RR and its concave
// ARR envelope (Figures 4 and 5) for both node types.
func BenchmarkFig4Fig5ARR(b *testing.B) {
	sc := getScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range sc.DC.NodeTypes {
			if _, err := assign.ARR(sc.DC, j, 50); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// BenchmarkFig6Improvement runs one full Figure-6 trial (baseline +
// three-stage at ψ=50) at reduced scale.
func BenchmarkFig6Improvement(b *testing.B) {
	sc := getScenario(b)
	opts := assign.DefaultOptions()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assign.Baseline(sc.DC, sc.Thermal, opts); err != nil {
			b.Fatal(err)
		}
		if _, err := assign.ThreeStage(sc.DC, sc.Thermal, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEq17PowerBounds regenerates the Equation-17/18 power envelope.
func BenchmarkEq17PowerBounds(b *testing.B) {
	sc := getScenario(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := assign.PowerBounds(sc.DC, sc.Thermal, tempsearch.DefaultConfig()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStage1LP isolates one Stage-1 LP solve at fixed outlets.
func BenchmarkStage1LP(b *testing.B) {
	sc := getScenario(b)
	arrs := make([]*pwl.Func, len(sc.DC.NodeTypes))
	for j := range arrs {
		f, err := assign.ARR(sc.DC, j, 50)
		if err != nil {
			b.Fatal(err)
		}
		arrs[j] = f
	}
	out := []float64{15, 15}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assign.Stage1Fixed(sc.DC, sc.Thermal, arrs, out); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStage3LP isolates the Stage-3 desired-rate LP.
func BenchmarkStage3LP(b *testing.B) {
	sc := getScenario(b)
	res, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := assign.NewStage3Solver(sc.DC).Solve(context.Background(), res.PStates); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalModelPaperScale builds the 153-unit heat-flow model.
func BenchmarkThermalModelPaperScale(b *testing.B) {
	cfg := scenario.Default(0.3, 0.1, 2)
	cfg.NCracs = 3
	cfg.NNodes = 150
	sc, err := scenario.Build(cfg)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := thermal.New(sc.DC); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkThermalModelFleet builds the heat-flow model of an assembled
// fleet of 100-node zones: 10 zones (1,020 units) and 20 zones (2,040),
// one connected component of α per zone.
func BenchmarkThermalModelFleet(b *testing.B) {
	for _, c := range []struct {
		name  string
		zones int
	}{{"1k", 10}, {"2k", 20}} {
		b.Run(c.name, func(b *testing.B) {
			dc, err := getFleet(b, c.zones).Assemble()
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := thermal.New(dc); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkDynamicScheduler streams 10 s of tasks (the tasks/op metric)
// per op through the second-step scheduler: on the 20-node scenario, and
// at paper scale (150 nodes, 3 CRACs) on the three-stage plan and on the
// Baseline plan, whose TC is per node. ns/arrival is the per-task cost of
// the simulation, nearly all of it the dispatch decision.
func BenchmarkDynamicScheduler(b *testing.B) {
	const horizon = 10.0
	b.Run("20-node", func(b *testing.B) {
		sc := getScenario(b)
		res, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchSimulate(b, sc.DC, res.PStates, res.Stage3.Dense(), horizon)
	})
	b.Run("paper-scale/three-stage", func(b *testing.B) {
		sc := getPaperScenario(b)
		res := getPaperThreeStage(b)
		benchSimulate(b, sc.DC, res.PStates, res.Stage3.Dense(), horizon)
	})
	b.Run("paper-scale/baseline", func(b *testing.B) {
		sc := getPaperScenario(b)
		if benchPaperBaseline == nil {
			res, err := assign.Baseline(sc.DC, sc.Thermal, assign.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			benchPaperBaseline = res
		}
		pstates, tc := benchPaperBaseline.Assignment(sc.DC)
		benchSimulate(b, sc.DC, pstates, tc, horizon)
	})
}

// benchPaperThreeStage and benchPaperBaseline cache the paper-scale plans
// across the sub-benchmark's calibration rounds.
var (
	benchPaperThreeStage *assign.ThreeStageResult
	benchPaperBaseline   *assign.BaselineResult
)

// getPaperThreeStage returns the paper-scale three-stage plan, the plan a
// closed loop adopts on that floor when nothing has failed.
func getPaperThreeStage(b *testing.B) *assign.ThreeStageResult {
	b.Helper()
	if benchPaperThreeStage == nil {
		sc := getPaperScenario(b)
		res, err := assign.ThreeStage(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		benchPaperThreeStage = res
	}
	return benchPaperThreeStage
}

// schedSink keeps BenchmarkSchedulerNew's builds from being optimized away.
var schedSink *sched.Scheduler

// BenchmarkSchedulerNew builds the second-step scheduler of the
// paper-scale three-stage plan (150 nodes, 4,800 cores) from its Stage-3
// core groups, once per op: what the closed loop does on every plan it
// adopts. B/core is the heap allocated per build and core; tasks is the
// task-type count T. A build holds one int32 ATC count per (task type,
// core), 4T bytes per core; the rest of the plan stays per group.
func BenchmarkSchedulerNew(b *testing.B) {
	b.Run("paper", func(b *testing.B) {
		dc := getPaperScenario(b).DC
		plan := getPaperThreeStage(b)
		s3 := plan.Stage3
		b.ReportAllocs()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var err error
			if schedSink, err = sched.New(dc, plan.PStates, s3.CoreGroup, s3.Tasks, s3.GroupRate); err != nil {
				b.Fatal(err)
			}
		}
		b.StopTimer()
		runtime.ReadMemStats(&m1)
		b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/(float64(b.N)*float64(dc.NumCores())), "B/core")
		b.ReportMetric(float64(dc.T()), "tasks")
	})
}

// benchSimulate times sim.Run over a fixed 10 s task stream per op.
func benchSimulate(b *testing.B, dc *model.DataCenter, pstates []int, tc [][]float64, horizon float64) {
	tasks := workload.GenerateTasks(dc, horizon, stats.NewRand(3))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(dc, pstates, tc, tasks, horizon); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tasks)), "tasks/op")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(tasks)), "ns/arrival")
}

// BenchmarkSearchStrategies is the temperature-search ablation: the
// paper's coarse-to-fine multi-step search versus the exhaustive grid and
// coordinate descent.
func BenchmarkSearchStrategies(b *testing.B) {
	sc := getScenario(b)
	for _, strat := range []assign.Strategy{assign.CoarseToFine, assign.FullGrid, assign.CoordDescent} {
		b.Run(strat.String(), func(b *testing.B) {
			opts := assign.DefaultOptions()
			opts.Strategy = strat
			// A narrower window keeps the exhaustive grid tractable.
			opts.Search = tempsearch.Config{Lo: 10, Hi: 20, CoarseStep: 5, FineStep: 1}
			for i := 0; i < b.N; i++ {
				res, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(float64(res.SearchEvals), "candidates/op")
				b.ReportMetric(float64(res.SearchSolved), "LPsolves/op")
			}
		})
	}
}

// benchPaperSC caches the paper-scale instance (150 nodes, 3 CRACs).
var benchPaperSC *scenario.Scenario

func getPaperScenario(b *testing.B) *scenario.Scenario {
	b.Helper()
	if benchPaperSC == nil {
		cfg := scenario.Default(0.3, 0.1, 2)
		cfg.NCracs = 3
		cfg.NNodes = 150
		sc, err := scenario.Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		benchPaperSC = sc
	}
	return benchPaperSC
}

// BenchmarkThreeStagePaperScale measures one full three-stage assignment
// trial at the paper's scale, comparing the historical per-candidate
// rebuild path (Stage1Fixed on every search candidate) against the
// incremental Stage1Solver, serially and with the parallel search.
func BenchmarkThreeStagePaperScale(b *testing.B) {
	sc := getPaperScenario(b)

	b.Run("legacy-rebuild", func(b *testing.B) {
		// The pre-Stage1Solver evaluation path: a fresh LP per candidate.
		arrs := make([]*pwl.Func, len(sc.DC.NodeTypes))
		for j := range arrs {
			f, err := assign.ARR(sc.DC, j, 50)
			if err != nil {
				b.Fatal(err)
			}
			arrs[j] = f
		}
		cfg := tempsearch.DefaultConfig()
		cfg.Parallelism = 1
		eval := tempsearch.Shared(func(cracOut []float64) (float64, bool) {
			res, err := assign.Stage1Fixed(sc.DC, sc.Thermal, arrs, cracOut)
			if err != nil || !res.Feasible {
				return 0, false
			}
			return res.PredictedARR, true
		})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			best, err := tempsearch.CoarseToFine(context.Background(), sc.DC.NCRAC(), cfg, eval)
			if err != nil {
				b.Fatal(err)
			}
			s1, err := assign.Stage1Fixed(sc.DC, sc.Thermal, arrs, best.Out)
			if err != nil {
				b.Fatal(err)
			}
			pstates, err := assign.Stage2(sc.DC, arrs, s1)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := assign.NewStage3Solver(sc.DC).Solve(context.Background(), pstates); err != nil {
				b.Fatal(err)
			}
		}
	})

	for _, bench := range []struct {
		name string
		par  int
	}{
		{"solver-serial", 1},
		{"solver-parallel", 0},
	} {
		b.Run(bench.name, func(b *testing.B) {
			opts := assign.DefaultOptions()
			opts.Search.Parallelism = bench.par
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := assign.ThreeStage(sc.DC, sc.Thermal, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	// solver-warm-epoch is the controller's steady state: one retained
	// ThreeStageSolver re-solving every epoch on cached search workers and
	// the cached Stage-3 skeleton.
	b.Run("solver-warm-epoch", func(b *testing.B) {
		opts := assign.DefaultOptions()
		opts.Search.Parallelism = 1
		s, err := assign.NewThreeStageSolver(sc.DC, sc.Thermal, opts)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := s.Solve(); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Solve(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// warm-resolve-allocs pins the zero-allocation contract of the scratch
	// Stage-1 path at paper scale: after warm-up, re-solves must report
	// 0 allocs/op (make bench-compare fails otherwise).
	b.Run("warm-resolve-allocs", func(b *testing.B) {
		arrs := make([]*pwl.Func, len(sc.DC.NodeTypes))
		for j := range arrs {
			f, err := assign.ARR(sc.DC, j, 50)
			if err != nil {
				b.Fatal(err)
			}
			arrs[j] = f
		}
		s := assign.NewStage1Solver(sc.DC, sc.Thermal, arrs)
		outs := [][]float64{{15, 15, 15}, {14, 16, 15}}
		for _, out := range outs {
			res, err := s.SolveScratch(context.Background(), out)
			if err != nil || !res.Feasible {
				b.Fatalf("warm-up solve at %v: %v (feasible=%v)", out, err, res != nil && res.Feasible)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SolveScratch(context.Background(), outs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})

	// warm-resolve-allocs-metrics repeats the contract on a solver wired
	// to a live, non-nil telemetry.NewRecorder() (every component off,
	// tracing included, as an untraced run carries it): attaching a
	// recorder must not cost an allocation either (make bench-compare
	// fails otherwise).
	b.Run("warm-resolve-allocs-metrics", func(b *testing.B) {
		arrs := make([]*pwl.Func, len(sc.DC.NodeTypes))
		for j := range arrs {
			f, err := assign.ARR(sc.DC, j, 50)
			if err != nil {
				b.Fatal(err)
			}
			arrs[j] = f
		}
		s := assign.NewStage1Solver(sc.DC, sc.Thermal, arrs)
		s.SetRecorder(telemetry.NewRecorder())
		outs := [][]float64{{15, 15, 15}, {14, 16, 15}}
		for _, out := range outs {
			res, err := s.SolveScratch(context.Background(), out)
			if err != nil || !res.Feasible {
				b.Fatalf("warm-up solve at %v: %v (feasible=%v)", out, err, res != nil && res.Feasible)
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.SolveScratch(context.Background(), outs[i%2]); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFig6ReducedExperiment runs a miniature end-to-end Figure-6
// experiment (1 trial per group) including scenario construction.
func BenchmarkFig6ReducedExperiment(b *testing.B) {
	cfg := experiments.DefaultFig6Config()
	cfg.Trials = 1
	cfg.NCracs = 2
	cfg.NNodes = 10
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure6(context.Background(), cfg, nil); err != nil {
			b.Fatal(err)
		}
	}
}
