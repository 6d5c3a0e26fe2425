package assign

import (
	"context"
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/thermal"
)

// Stage1Solver solves the Stage-1 LP (Equation 9) for many CRAC
// outlet-temperature candidates against one (data center, ψ) pair. It
// builds the LP once as an outletLP over the scaled per-node ARR segment
// variables, so each Solve only patches the power row's coefficients and
// every row's right-hand side before re-running the simplex on
// preallocated tableau buffers. Temperature searches evaluate hundreds of
// candidates per trial; the incremental path removes the dominant
// rebuild-and-allocate cost from that loop.
//
// Solve produces results identical to Stage1Fixed: the patched problem has
// the same variables, rows, coefficients, and right-hand sides computed
// with the same floating-point operation order, so the simplex visits the
// same vertices (this matters — alternate optima with equal objectives
// would still change Stage-2/Stage-3 downstream).
//
// A Stage1Solver is NOT safe for concurrent use: it owns one LP skeleton
// and one simplex workspace. Parallel searches give each worker its own
// solver via Clone.
type Stage1Solver struct {
	outletLP
	arrs []*pwl.Func

	// Scratch result + buffers for the zero-allocation SolveScratch
	// path. All are overwritten by the next scratch solve.
	scratch    Stage1Result
	scrCracOut []float64
	scrCore    []float64
	scrPow     []float64
	scrTin     []float64
	scrGP      []float64
	scrCRAC    []float64
}

// NewStage1Solver precomputes the Stage-1 LP skeleton for the given data
// center, thermal model, and per-type ARR envelopes (from nodeARRs at one
// ψ). Construction cannot fail; infeasible outlet candidates surface as
// Solve errors, exactly as with Stage1Fixed.
func NewStage1Solver(dc *model.DataCenter, tm *thermal.Model, arrs []*pwl.Func) *Stage1Solver {
	s := &Stage1Solver{arrs: arrs}
	p := linprog.NewProblem(linprog.Maximize)
	// Segment variables per node, in the exact order Stage1Fixed adds them.
	// Names are left empty: they only appear in error messages and cost a
	// fmt.Sprintf each, which the skeleton pays zero times per candidate.
	var varNode []int
	var varPow []float64
	for j := 0; j < dc.NCN(); j++ {
		nt := dc.NodeType(j)
		scaled := arrs[dc.Nodes[j].Type].Scale(float64(nt.NumCores))
		for _, seg := range scaled.Segments() {
			p.AddVar("", 0, seg.Length, seg.Slope)
			varNode = append(varNode, j)
			varPow = append(varPow, 1) // a segment variable is node power
		}
	}
	s.init(dc, tm, p, varNode, varPow)
	return s
}

// Clone returns an independent solver over the same precomputed scenario,
// for use by another search worker. Clones share only immutable inputs
// (data center, thermal model, ARR envelopes) and inherit the tracer,
// which is internally synchronized, so sharing it across workers is safe.
func (s *Stage1Solver) Clone() *Stage1Solver {
	c := NewStage1Solver(s.dc, s.tm, s.arrs)
	c.ws.Trace = s.ws.Trace
	return c
}

// SetRecorder sends the solver's LP-solve spans to rec's tracer (nil
// tracer = untraced fast path). A nil rec (or a rec with tracing
// disabled) detaches cleanly.
func (s *Stage1Solver) SetRecorder(rec *telemetry.Recorder) {
	s.ws.Trace = rec.Tracer()
}

// TakeStats returns the accumulated simplex work counters and resets them,
// giving callers per-epoch deltas.
func (s *Stage1Solver) TakeStats() linprog.Stats {
	st := s.ws.Stats
	s.ws.Stats = linprog.Stats{}
	return st
}

// Workspace exposes the solver's simplex workspace (benchmarks and tests
// assert on buffer identity and allocation behavior).
func (s *Stage1Solver) Workspace() *linprog.Workspace { return &s.ws }

// Solve patches the skeleton for cracOut and runs the simplex, returning
// the same result (and errors) Stage1Fixed would for the same inputs. The
// simplex polls ctx between pivot batches, so an expired deadline surfaces
// as a Canceled status error instead of a runaway solve. It is
// SolveScratch with the result copied out of the solver and a redline
// error that names the row and outlets.
func (s *Stage1Solver) Solve(ctx context.Context, cracOut []float64) (*Stage1Result, error) {
	scr, err := s.SolveScratch(ctx, cracOut)
	res := *scr
	res.CracOut = append([]float64(nil), scr.CracOut...)
	res.NodeCorePower = append([]float64(nil), scr.NodeCorePower...)
	res.NodePower = append([]float64(nil), scr.NodePower...)
	return &res, s.redlineErr(err, cracOut)
}

// SolveScratch is the zero-allocation solve for search and epoch hot
// loops: the returned Stage1Result and all its slices live in the solver
// and are overwritten by the next scratch solve — callers that keep a
// result copy it first (Solve does). A redline that base power alone
// violates fails with an allocation-free error that names neither the row
// nor the outlets. On the warm path (shapes unchanged since the last call)
// it performs no heap allocations at all.
func (s *Stage1Solver) SolveScratch(ctx context.Context, cracOut []float64) (*Stage1Result, error) {
	dc, tm := s.dc, s.tm
	ncn := dc.NCN()

	res := &s.scratch
	s.scrCracOut = append(s.scrCracOut[:0], cracOut...)
	*res = Stage1Result{CracOut: s.scrCracOut}
	sol, err := s.solve(ctx, cracOut)
	if err != nil {
		return res, err
	}

	s.scrCore = growZero(s.scrCore, ncn)
	s.scrPow = growZero(s.scrPow, ncn)
	res.NodeCorePower = s.scrCore
	res.NodePower = s.scrPow
	res.PredictedARR = sol.Objective
	res.PowerShadowPrice = sol.Dual(s.powerRow)
	res.LinearBasePower = s.baseConst
	res.LinearPower = s.baseConst
	for k, node := range s.varNode {
		res.NodeCorePower[node] += sol.Value(k)
		res.LinearPower += s.nodeCoef[node] * sol.Value(k)
	}
	for j := 0; j < ncn; j++ {
		res.NodePower[j] = dc.NodeType(j).BasePower + res.NodeCorePower[j]
		res.ComputePower += res.NodePower[j]
	}
	s.scrTin, s.scrGP = tm.InletTempsInto(cracOut, res.NodePower, s.scrTin, s.scrGP)
	s.scrCRAC = tm.CRACPowersInto(cracOut, s.scrTin, s.scrCRAC)
	for _, cp := range s.scrCRAC {
		res.CRACPower += cp
	}
	res.TotalPower = res.ComputePower + res.CRACPower
	// Inline thermal.Model.RedlineSlack against the cached redline vector:
	// same subtraction per unit, no per-call Redline() allocation.
	slack := math.Inf(1)
	for i, tin := range s.scrTin {
		if sl := s.redline[i] - tin; sl < slack {
			slack = sl
		}
	}
	res.Feasible = res.TotalPower <= dc.Pconst+powerTolerance && slack >= -powerTolerance
	return res, nil
}

// growZero returns a zeroed length-n slice reusing buf's capacity.
func growZero(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		buf = buf[:n]
		clear(buf)
		return buf
	}
	return make([]float64, n)
}
