package assign

import (
	"context"
	"fmt"
	"math"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/thermal"
)

// Stage1Solver solves the Stage-1 LP (Equation 9) for many CRAC
// outlet-temperature candidates against one (data center, ψ) pair. It
// precomputes everything that does not depend on the outlets — the scaled
// per-node ARR segment variables, the thermal power-sensitivity rows, and
// the LP skeleton — so each Solve only patches the power row's
// coefficients and every row's right-hand side before re-running the
// simplex on preallocated tableau buffers. Temperature searches evaluate
// hundreds of candidates per trial; the incremental path removes the
// dominant rebuild-and-allocate cost from that loop.
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
	dc   *model.DataCenter
	tm   *thermal.Model
	arrs []*pwl.Func

	p        *linprog.Problem
	segNode  []int // segNode[k]: compute node of segment variable k
	nodeSegs [][]int
	redline  []float64 // dc.Redline(), invariant
	basePow  []float64 // basePow[j] = dc.NodeType(j).BasePower, invariant

	// ws holds the simplex tableau buffers reused across Solves. It is
	// sized once, at the first solve, for the skeleton's worst-case shape
	// (see reserve), so no Stage-1 solve grows it.
	ws       linprog.Workspace
	reserved bool
	// Scratch buffers for the per-candidate patch step. baseConst retains
	// the power row's constant term from the latest patch so solves can
	// report the linearized power ledger without recomputing it.
	base      []float64
	lin       []thermal.LinearCRACPower
	nodeCoef  []float64
	baseConst float64

	// lastSol is the latest successful solve (nil after a failed one); its
	// duals seed the search's bounds. bnd prices candidates by weak
	// duality; it is sized on the first SetBoundDuals.
	lastSol *linprog.Solution
	bnd     outletBound

	// Telemetry handles. The zero values are no-ops, so an uninstrumented
	// solver pays one predictable-branch per solve; instrumented solves pay
	// two atomic adds and stay allocation-free.
	mSolves telemetry.Counter
	mInfeas telemetry.Counter

	// Scratch result + buffers for the zero-allocation SolveScratchContext
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
	ncn := dc.NCN()
	s := &Stage1Solver{
		dc:       dc,
		tm:       tm,
		arrs:     arrs,
		p:        linprog.NewProblem(linprog.Maximize),
		nodeSegs: make([][]int, ncn),
		redline:  dc.Redline(),
		basePow:  make([]float64, ncn),
		nodeCoef: make([]float64, ncn),
	}
	for j := 0; j < ncn; j++ {
		s.basePow[j] = dc.NodeType(j).BasePower
	}

	// Segment variables per node, in the exact order Stage1Fixed adds them.
	// Names are left empty: they only appear in error messages and cost a
	// fmt.Sprintf each, which the skeleton pays zero times per candidate.
	for j := 0; j < ncn; j++ {
		nt := dc.NodeType(j)
		scaled := arrs[dc.Nodes[j].Type].Scale(float64(nt.NumCores))
		for _, seg := range scaled.Segments() {
			id := s.p.AddVar("", 0, seg.Length, seg.Slope)
			s.segNode = append(s.segNode, j)
			s.nodeSegs[j] = append(s.nodeSegs[j], id)
		}
	}

	// Power row first (its dual is the power shadow price, read as Dual(0)).
	// Coefficients and rhs are placeholders patched on every Solve.
	powerTerms := make([]linprog.Term, len(s.segNode))
	for k := range powerTerms {
		powerTerms[k] = linprog.Term{Var: k, Coef: 1}
	}
	s.p.AddRow(linprog.LE, 0, powerTerms...)

	// Thermal rows: the coefficients G[t][j] do not depend on the outlets,
	// so they are final; only each row's rhs is patched per candidate. The
	// sparsity pattern (gj == 0 terms skipped) matches Stage1Fixed.
	g := tm.PowerSensitivity()
	var terms []linprog.Term
	for t := 0; t < dc.NumThermal(); t++ {
		terms = terms[:0]
		for j := 0; j < ncn; j++ {
			gj := g.At(t, j)
			if gj == 0 {
				continue
			}
			for _, id := range s.nodeSegs[j] {
				terms = append(terms, linprog.Term{Var: id, Coef: gj})
			}
		}
		s.p.AddRow(linprog.LE, 0, terms...)
	}
	return s
}

// Clone returns an independent solver over the same precomputed scenario,
// for use by another search worker. Clones share only immutable inputs
// (data center, thermal model, ARR envelopes) and inherit the telemetry
// wiring (metric handles are atomic and the tracer is
// internally synchronized, so sharing them across workers is safe).
func (s *Stage1Solver) Clone() *Stage1Solver {
	c := NewStage1Solver(s.dc, s.tm, s.arrs)
	c.ws.Trace = s.ws.Trace
	c.mSolves, c.mInfeas = s.mSolves, s.mInfeas
	return c
}

// SetRecorder wires the solver to rec: LP-solve spans go to rec's tracer
// (nil tracer = untraced fast path) and per-solve counters to its metrics
// registry. A nil rec (or a rec with tracing disabled) detaches cleanly.
func (s *Stage1Solver) SetRecorder(rec *telemetry.Recorder) {
	s.ws.Trace = rec.Tracer()
	reg := rec.Registry()
	s.mSolves = reg.Counter("tapo_stage1_solves_total",
		"Stage-1 LP solve attempts (full and scratch paths)")
	s.mInfeas = reg.Counter("tapo_stage1_infeasible_total",
		"Stage-1 solves rejected because base power alone violates a redline")
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
// the same result (and errors) Stage1Fixed would for the same inputs.
func (s *Stage1Solver) Solve(cracOut []float64) (*Stage1Result, error) {
	return s.SolveContext(context.Background(), cracOut)
}

// SolveContext is Solve under a context: the simplex polls ctx between
// pivot batches, so an expired deadline surfaces as a Canceled status
// error instead of a runaway solve. An uncancelled context produces
// results bit-identical to Solve.
func (s *Stage1Solver) SolveContext(ctx context.Context, cracOut []float64) (*Stage1Result, error) {
	dc, tm := s.dc, s.tm
	ncn := dc.NCN()
	s.mSolves.Inc()
	s.reserve()

	if badRow := s.patch(cracOut); badRow >= 0 {
		// Base power alone violates this redline: infeasible outlets.
		s.mInfeas.Inc()
		return &Stage1Result{CracOut: append([]float64(nil), cracOut...), Feasible: false},
			fmt.Errorf("assign: redline %d violated by base power alone at outlets %v", badRow, cracOut)
	}

	sol, err := s.p.SolveWithContext(ctx, &s.ws)
	if err != nil {
		return &Stage1Result{CracOut: append([]float64(nil), cracOut...), Feasible: false}, err
	}
	s.lastSol = sol

	res := &Stage1Result{
		CracOut:          append([]float64(nil), cracOut...),
		NodeCorePower:    make([]float64, ncn),
		NodePower:        make([]float64, ncn),
		PredictedARR:     sol.Objective,
		PowerShadowPrice: sol.Dual(0), // the power row is added first
		LinearBasePower:  s.baseConst,
		LinearPower:      s.baseConst,
	}
	for k, node := range s.segNode {
		res.NodeCorePower[node] += sol.Value(k)
		res.LinearPower += s.nodeCoef[node] * sol.Value(k)
	}
	for j := 0; j < ncn; j++ {
		res.NodePower[j] = dc.NodeType(j).BasePower + res.NodeCorePower[j]
		res.ComputePower += res.NodePower[j]
	}
	for _, cp := range tm.CRACPowers(cracOut, res.NodePower) {
		res.CRACPower += cp
	}
	res.TotalPower = res.ComputePower + res.CRACPower
	tin := tm.InletTemps(cracOut, res.NodePower)
	res.Feasible = res.TotalPower <= dc.Pconst+powerTolerance &&
		tm.RedlineSlack(tin) >= -powerTolerance
	return res, nil
}

// reserve sizes the workspace for the skeleton's worst-case shape on the
// first solve. How many artificials a solve needs depends on the outlets,
// so without it a workspace would grow whenever a candidate needed more
// than any before, and a search worker's Stats.AllocBytes would depend on
// which candidates a parallel search happened to hand it. Reserving late
// rather than in NewStage1Solver keeps solvers that never solve (a
// fleet's monolithic base) from holding a full tableau.
func (s *Stage1Solver) reserve() {
	if !s.reserved {
		s.ws.Reserve(s.p.NumRows(), s.p.NumVars())
		s.reserved = true
	}
}

// patch rewrites the outlet-dependent parts of the LP skeleton for cracOut:
// the power row's coefficients and rhs, and every thermal row's rhs. It
// returns the index of the first thermal row whose redline is violated by
// base power alone (infeasible outlets, LP left partially patched), or −1.
// The accumulation order matches Stage1Fixed exactly so the patched
// coefficients are bit-identical to a fresh build.
func (s *Stage1Solver) patch(cracOut []float64) (badRow int) {
	dc, tm := s.dc, s.tm
	ncn := dc.NCN()
	s.lastSol = nil

	// Power row (paper constraint 4, linearized CRAC power):
	// Σ_j (B_j + x_j) + Σ_i [Const_i + Σ_j Coef_i[j]·(B_j + x_j)] ≤ Pconst.
	s.base = tm.InletBaseInto(cracOut, s.base)
	s.lin = tm.LinearizeCRACPowerInto(cracOut, s.base, s.lin)
	baseConst := linearPowerRow(s.basePow, s.lin, s.nodeCoef)
	powerTerms := s.p.RowTerms(0)
	for k, node := range s.segNode {
		powerTerms[k].Coef = s.nodeCoef[node]
	}
	s.p.SetRHS(0, dc.Pconst-baseConst)
	s.baseConst = baseConst

	// Thermal rows (paper constraint 5): coefficients are invariant; only
	// rhs_t = redline_t − base_t(cracOut) − Σ_j G[t][j]·B_j changes.
	g := tm.PowerSensitivity()
	for t := 0; t < dc.NumThermal(); t++ {
		rhs := s.redline[t] - s.base[t]
		grow := g.Row(t)
		for j := 0; j < ncn; j++ {
			rhs -= grow[j] * s.basePow[j]
		}
		if rhs < 0 {
			return t
		}
		s.p.SetRHS(1+t, rhs)
	}
	return -1
}

// AppendDuals appends the row duals of the latest successful solve (the
// power row first, then the thermal rows) to dst; it returns dst unchanged
// when the latest solve failed.
func (s *Stage1Solver) AppendDuals(dst []float64) []float64 {
	if s.lastSol == nil {
		return dst
	}
	return s.lastSol.AppendDuals(dst)
}

// SetBoundDuals prices subsequent Bound calls with the dual vector y of
// any Stage-1 solve over the same scenario (see AppendDuals). The first
// call sizes the bound's buffers; later calls do not allocate.
func (s *Stage1Solver) SetBoundDuals(y []float64) {
	if s.bnd.p == nil {
		pow := make([]float64, len(s.segNode))
		for k := range pow {
			pow[k] = 1
		}
		s.bnd.init(s.dc, s.tm, s.p, s.segNode, pow)
	}
	s.bnd.setDuals(y)
}

// Bound returns an upper bound on the PredictedARR a solve at cracOut can
// report, from the weak dual of the Stage-1 LP priced at the SetBoundDuals
// vector (+Inf before the first SetBoundDuals). It solves nothing, leaves
// the LP skeleton untouched, and does not allocate once warm.
func (s *Stage1Solver) Bound(cracOut []float64) float64 { return s.bnd.bound(cracOut) }

// errBaseRedline is the allocation-free error SolveScratch returns when a
// redline is violated by base power alone (SolveContext formats a richer
// message naming the row and outlets).
var errBaseRedline = fmt.Errorf("assign: redline violated by base power alone")

// SolveScratch is SolveScratchContext without a context.
func (s *Stage1Solver) SolveScratch(cracOut []float64) (*Stage1Result, error) {
	return s.SolveScratchContext(context.Background(), cracOut)
}

// SolveScratchContext is SolveContext's zero-allocation twin for search and
// epoch hot loops: every number it produces is bit-identical, but the
// returned Stage1Result and all its slices live in the solver and are
// overwritten by the next scratch solve — callers that keep a result copy
// it first. On the warm path (shapes unchanged since the last call) it
// performs no heap allocations at all.
func (s *Stage1Solver) SolveScratchContext(ctx context.Context, cracOut []float64) (*Stage1Result, error) {
	dc, tm := s.dc, s.tm
	ncn := dc.NCN()

	res := &s.scratch
	s.scrCracOut = append(s.scrCracOut[:0], cracOut...)
	*res = Stage1Result{CracOut: s.scrCracOut}
	s.mSolves.Inc()
	s.reserve()

	if badRow := s.patch(cracOut); badRow >= 0 {
		s.mInfeas.Inc()
		return res, errBaseRedline
	}
	sol, err := s.p.SolveInto(ctx, &s.ws)
	if err != nil {
		return res, err
	}
	s.lastSol = sol

	s.scrCore = growZero(s.scrCore, ncn)
	s.scrPow = growZero(s.scrPow, ncn)
	res.NodeCorePower = s.scrCore
	res.NodePower = s.scrPow
	res.PredictedARR = sol.Objective
	res.PowerShadowPrice = sol.Dual(0) // the power row is added first
	res.LinearBasePower = s.baseConst
	res.LinearPower = s.baseConst
	for k, node := range s.segNode {
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
