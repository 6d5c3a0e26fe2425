package assign

import (
	"context"
	"fmt"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// Strategy selects how CRAC outlet temperatures are searched.
type Strategy int

const (
	// CoarseToFine is the paper's multi-step discretized search (default).
	CoarseToFine Strategy = iota
	// FullGrid exhaustively scans the FineStep lattice (ablation baseline).
	FullGrid
	// CoordDescent optimizes one CRAC at a time (cheap ablation).
	CoordDescent
)

func (s Strategy) String() string {
	switch s {
	case CoarseToFine:
		return "coarse-to-fine"
	case FullGrid:
		return "full-grid"
	case CoordDescent:
		return "coordinate-descent"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Options configures the first-step assignment.
type Options struct {
	// Psi is the ψ parameter in percent (paper: 25 or 50).
	Psi float64
	// Search bounds/steps for the CRAC outlet-temperature search.
	Search tempsearch.Config
	// Strategy picks the search algorithm.
	Strategy Strategy
	// Method selected a simplex core when there were two.
	//
	// Deprecated: ignored; every LP runs on the flat tableau.
	Method linprog.Method
	// WarmStart enabled dual-simplex warm starts of a removed core.
	//
	// Deprecated: ignored.
	WarmStart bool
	// Recorder, when non-nil, wires the whole pipeline to a telemetry
	// recorder: per-stage and per-LP spans go to its tracer (if tracing is
	// enabled). Nil — the default — keeps every solver on the uninstrumented fast path. Telemetry never
	// changes solver results.
	Recorder *telemetry.Recorder
}

// DefaultOptions returns the paper's defaults (ψ = 50, coarse-to-fine
// search at 1 °C final granularity).
func DefaultOptions() Options {
	return Options{Psi: 50, Search: tempsearch.DefaultConfig(), Strategy: CoarseToFine}
}

// ThreeStageResult is the complete first-step assignment produced by the
// paper's scalable technique.
type ThreeStageResult struct {
	// Stage1 is the relaxed power assignment at the best outlet
	// temperatures found.
	Stage1 *Stage1Result
	// PStates maps each global core index to its assigned P-state.
	PStates []int
	// Stage3 holds the desired execution rates and the realized
	// steady-state reward rate (the headline metric).
	Stage3 *Stage3Result
	// SearchEvals counts the outlet candidates the temperature search
	// visited; SearchSolved counts those it evaluated (the rest were
	// screened out by their weak-duality bound).
	SearchEvals  int
	SearchSolved int
}

// RewardRate returns the Stage-3 objective, the metric Figure 6 compares.
func (r *ThreeStageResult) RewardRate() float64 { return r.Stage3.RewardRate }

// ThreeStage runs the paper's full first-step assignment: search the CRAC
// outlet temperatures (Stage-1 LP value as the criterion), then convert
// the winning relaxed power assignment to integer P-states (Stage 2) and
// solve the desired-execution-rate LP (Stage 3).
//
// The search evaluates Stage-1 candidates through an incremental
// Stage1Solver — one per search worker (see tempsearch.Config.Parallelism)
// — so the LP skeleton and simplex tableau are built once per worker, not
// once per candidate. Results are identical to solving each candidate with
// Stage1Fixed serially.
func ThreeStage(dc *model.DataCenter, tm *thermal.Model, opts Options) (*ThreeStageResult, error) {
	s, err := NewThreeStageSolver(dc, tm, opts)
	if err != nil {
		return nil, err
	}
	return s.Solve()
}

// ThreeStageSolver is the warm-start form of ThreeStage: the ARR envelopes
// and the incremental Stage-1 LP are built once, and Solve can be called
// repeatedly. Because the Stage-1 LP reads dc.Pconst at each solve, a
// caller that only changes the power cap (the epoch controller reacting to
// a PowerCap fault) mutates dc.Pconst in place and re-Solves without
// rebuilding anything; structural changes (CRAC flows, node failures,
// redlines) need a fresh solver on a freshly degraded model.
type ThreeStageSolver struct {
	dc   *model.DataCenter
	opts Options
	arrs []*pwl.Func
	base *Stage1Solver

	// workers caches the per-search-worker Stage-1 solvers so repeat Solve
	// calls keep every worker's simplex workspace warm instead of
	// re-cloning per epoch; next indexes the handout within one search.
	// workers[0] is base; later workers are clones.
	workers []*Stage1Solver
	next    int

	// stage3 keeps the Stage-3 group-LP skeleton and workspace warm across
	// epochs.
	stage3 *Stage3Solver

	// rec is the telemetry recorder from Options (nil when uninstrumented);
	// SolveContext records one SpanStage span per pipeline stage on its
	// tracer.
	rec *telemetry.Recorder
}

// Span labels for the SpanStage spans SolveContext records, in pipeline
// order. Exported so span consumers can decode Span.Label.
const (
	StageLabelSearch = iota
	StageLabelStage1
	StageLabelStage2
	StageLabelStage3
)

// NewThreeStageSolver prepares a reusable first-step solver.
func NewThreeStageSolver(dc *model.DataCenter, tm *thermal.Model, opts Options) (*ThreeStageSolver, error) {
	arrs, err := nodeARRs(dc, opts.Psi)
	if err != nil {
		return nil, err
	}
	base := NewStage1Solver(dc, tm, arrs)
	stage3 := NewStage3Solver(dc)
	if opts.Recorder != nil {
		base.SetRecorder(opts.Recorder)
		stage3.SetRecorder(opts.Recorder)
		// Candidate spans during the temperature search come from the same
		// tracer; search workers are Clones of base, so they inherit the LP
		// wiring automatically.
		opts.Search.Trace = opts.Recorder.Tracer()
	}
	return &ThreeStageSolver{
		dc:     dc,
		opts:   opts,
		arrs:   arrs,
		base:   base,
		rec:    opts.Recorder,
		stage3: stage3,
	}, nil
}

// Stage1Warm returns the retained base Stage-1 solver, whose scratch solve
// path benchmarks and tests exercise directly.
func (s *ThreeStageSolver) Stage1Warm() *Stage1Solver { return s.base }

// TakeLPStats drains and sums the simplex counters of every retained LP
// workspace (all Stage-1 search workers plus the Stage-3 solver). Counters
// reset to zero, so each call reports activity since the previous one.
func (s *ThreeStageSolver) TakeLPStats() linprog.Stats {
	var total linprog.Stats
	total.Add(s.base.TakeStats())
	for _, w := range s.workers {
		if w != s.base {
			total.Add(w.TakeStats())
		}
	}
	total.Add(s.stage3.TakeStats())
	return total
}

// worker hands out the next cached Stage-1 solver for the current search,
// cloning the base skeleton only the first time a given worker slot is
// used. Called from the single goroutine that runs the search factory.
func (s *ThreeStageSolver) worker() *Stage1Solver {
	if s.next == len(s.workers) {
		w := s.base
		if len(s.workers) > 0 {
			w = s.base.Clone()
		}
		s.workers = append(s.workers, w)
	}
	w := s.workers[s.next]
	s.next++
	return w
}

// Solve runs the full three-stage assignment against the current model
// state. Repeat calls reuse the LP skeleton and simplex tableau.
func (s *ThreeStageSolver) Solve() (*ThreeStageResult, error) {
	return s.SolveContext(context.Background())
}

// SolveContext is Solve under a context: the temperature search workers,
// the Stage-1 simplex, and the Stage-3 LP all poll ctx, so an expired
// epoch deadline cuts the whole pipeline short with a Timeout-classified
// error instead of finishing a stale solve. Failures of every stage are
// wrapped in a solvererr.SolveError naming the stage and kind; an
// uncancelled context yields results bit-identical to Solve.
func (s *ThreeStageSolver) SolveContext(ctx context.Context) (*ThreeStageResult, error) {
	tr := s.rec.Tracer()
	clk := tr.Begin()
	best, err := runSearch(ctx, s.dc.NCRAC(), s.opts, s.searchFactory(ctx))
	tr.End(clk, telemetry.SpanStage, StageLabelSearch, int64(best.Solved), errBit(err))
	if err != nil {
		return nil, solvererr.Wrap("search", fmt.Errorf("assign: temperature search: %w", err))
	}
	clk = tr.Begin()
	s1, err := s.base.SolveContext(ctx, best.Out)
	tr.End(clk, telemetry.SpanStage, StageLabelStage1, 0, errBit(err))
	if err != nil {
		return nil, solvererr.Wrap("stage1", err)
	}
	clk = tr.Begin()
	pstates, err := Stage2(s.dc, s.arrs, s1)
	tr.End(clk, telemetry.SpanStage, StageLabelStage2, 0, errBit(err))
	if err != nil {
		return nil, solvererr.Wrap("stage2", err)
	}
	clk = tr.Begin()
	s3, err := s.stage3.SolveContext(ctx, pstates)
	tr.End(clk, telemetry.SpanStage, StageLabelStage3, 0, errBit(err))
	if err != nil {
		return nil, solvererr.Wrap("stage3", err)
	}
	return &ThreeStageResult{
		Stage1:       s1,
		PStates:      pstates,
		Stage3:       s3,
		SearchEvals:  best.Evals,
		SearchSolved: best.Solved,
	}, nil
}

// searchFactory starts a temperature search: the first worker gets the
// base solver, later workers cached clones, cloned once and reused every
// epoch. Searches call the factory from a single goroutine, and all
// workers finish before the search returns, so reusing base afterwards for
// the final solve is safe.
func (s *ThreeStageSolver) searchFactory(ctx context.Context) tempsearch.Factory {
	s.next = 0
	return func() tempsearch.Evaluator { return stage1Eval{ctx: ctx, Stage1Solver: s.worker()} }
}

// stage1Eval is one search worker's Stage-1 evaluator: values from the
// solver's scratch solve, duals and bounds from the same solver.
type stage1Eval struct {
	ctx context.Context
	*Stage1Solver
}

// Eval returns the Stage-1 LP optimum at cracOut. The scratch solve is
// bit-identical to SolveContext and allocation-free; the search keeps only
// (value, ok), never the solver-owned result.
func (e stage1Eval) Eval(cracOut []float64) (float64, bool) {
	res, err := e.SolveScratchContext(e.ctx, cracOut)
	if err != nil || !res.Feasible {
		return 0, false
	}
	return res.PredictedARR, true
}

// FinishFromStage1 completes the pipeline from an externally produced
// Stage-1 result: Stage 2 converts the relaxed power assignment to integer
// P-states and Stage 3 solves the desired-execution-rate LP, both on the
// same cached skeletons SolveContext uses — so a caller that obtained the
// Stage-1 solution elsewhere (the zone-decomposed path in internal/zones)
// pays no search and no skeleton rebuild. The result's SearchEvals is 0;
// everything else matches SolveContext had its search produced s1.
func (s *ThreeStageSolver) FinishFromStage1(ctx context.Context, s1 *Stage1Result) (*ThreeStageResult, error) {
	tr := s.rec.Tracer()
	clk := tr.Begin()
	pstates, err := Stage2(s.dc, s.arrs, s1)
	tr.End(clk, telemetry.SpanStage, StageLabelStage2, 0, errBit(err))
	if err != nil {
		return nil, solvererr.Wrap("stage2", err)
	}
	clk = tr.Begin()
	s3, err := s.stage3.SolveContext(ctx, pstates)
	tr.End(clk, telemetry.SpanStage, StageLabelStage3, 0, errBit(err))
	if err != nil {
		return nil, solvererr.Wrap("stage3", err)
	}
	return &ThreeStageResult{Stage1: s1, PStates: pstates, Stage3: s3}, nil
}

// errBit maps an error to the Span.Err convention used by the stage spans:
// 0 for success, 1 for failure.
func errBit(err error) int32 {
	if err != nil {
		return 1
	}
	return 0
}

// runSearch dispatches on the strategy.
func runSearch(ctx context.Context, ncrac int, opts Options, newEval tempsearch.Factory) (tempsearch.Result, error) {
	switch opts.Strategy {
	case FullGrid:
		return tempsearch.GridContext(ctx, ncrac, opts.Search, opts.Search.FineStep, newEval)
	case CoordDescent:
		return tempsearch.CoordinateDescentContext(ctx, ncrac, opts.Search, nil, newEval)
	default:
		return tempsearch.CoarseToFineContext(ctx, ncrac, opts.Search, newEval)
	}
}
