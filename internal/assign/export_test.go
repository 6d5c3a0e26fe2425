package assign

import (
	"context"
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// SearchOnly runs the solver's outlet-temperature search alone. With
// screened false every evaluator's bound is dropped, so the search solves
// every candidate it visits: the reference a screened search must match.
func (s *ThreeStageSolver) SearchOnly(screened bool) (tempsearch.Result, error) {
	f := s.searchFactory(context.Background())
	if !screened {
		f = unscreened(f)
	}
	return runSearch(context.Background(), s.dc.NCRAC(), s.opts, f)
}

// BaselineSearchOnly is SearchOnly for the Equation-21 search.
func BaselineSearchOnly(dc *model.DataCenter, tm *thermal.Model, opts Options, screened bool) (tempsearch.Result, error) {
	f := baselineFactory(dc, tm, nil)
	if !screened {
		f = unscreened(f)
	}
	return runSearch(context.Background(), dc.NCRAC(), opts, f)
}

// Stage1LPAt patches the solver's LP skeleton for cracOut and returns it,
// so a test can price the exact LP a solve at cracOut would run.
func (s *Stage1Solver) Stage1LPAt(cracOut []float64) *linprog.Problem {
	s.patch(cracOut)
	return s.p
}

// BaselineLPAt builds the Equation-21 LP at cracOut from scratch.
func BaselineLPAt(dc *model.DataCenter, tm *thermal.Model, cracOut []float64) *linprog.Problem {
	return newFreshBaselineLP(dc, tm, cracOut).p
}

// BaselineWorker returns the Equation-21 solve of one search worker's
// evaluator: every call patches and re-solves that worker's one LP.
func BaselineWorker(dc *model.DataCenter, tm *thermal.Model) func(cracOut []float64) (*BaselineResult, error) {
	return baselineFactory(dc, tm, nil)().(baselineEval).solveAt
}

// BaselineWorkerStats is BaselineWorker together with the worker's simplex
// counters.
func BaselineWorkerStats(dc *model.DataCenter, tm *thermal.Model) (solve func(cracOut []float64) (*BaselineResult, error), stats *linprog.Stats) {
	e := baselineFactory(dc, tm, nil)().(baselineEval)
	return e.solveAt, &e.ws.Stats
}

// BaselineBound prices the Equation-21 LP at cracOut with the duals y
// through a search evaluator's bound.
func BaselineBound(dc *model.DataCenter, tm *thermal.Model, y, cracOut []float64) float64 {
	e := baselineFactory(dc, tm, nil)()
	e.SetBoundDuals(y)
	return e.Bound(cracOut)
}

func unscreened(f tempsearch.Factory) tempsearch.Factory {
	return func() tempsearch.Evaluator { return noBound{f()} }
}

// noBound hides an evaluator's duals and bound.
type noBound struct{ tempsearch.Evaluator }

func (noBound) AppendDuals(dst []float64) []float64 { return dst }
func (noBound) SetBoundDuals([]float64)             {}
func (noBound) Bound([]float64) float64             { return math.Inf(1) }
