package linprog

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"

	"thermaldc/internal/telemetry"
)

// Numerical tolerances for the simplex. The LPs in this repository are well
// scaled (powers in kW, temperatures in °C, rates in tasks/s), so fixed
// tolerances are adequate.
const (
	tolReduced   = 1e-9 // reduced-cost optimality tolerance
	tolPivot     = 1e-9 // smallest acceptable pivot magnitude
	tolFeas      = 1e-7 // bound/feasibility tolerance
	tolVerify    = 1e-6 // relative residual tolerance for solution verification
	refreshEvery = 256  // recompute the reduced-cost row every this many pivots
	// ctxCheckEvery bounds how many pivots run between cooperative
	// cancellation checks; each check is one atomic load inside ctx.Err.
	ctxCheckEvery = 64
)

type varStatus int8

const (
	atLower varStatus = iota
	atUpper
	basic
	freeZero // nonbasic free variable pinned at 0
)

// tableauState is the mutable state of one Solve call.
//
// The tableau lives in one flat row-major backing array a of m rows with a
// fixed stride (nStruct + 2m, the worst case of one artificial per row), so
// the pivot loop walks contiguous memory instead of chasing row pointers.
// Two sparsity structures cut the elimination work:
//
//   - extLo/extHi track each row's nonzero extent [extLo, extHi): every
//     entry outside it is an exact zero, so the ratio test, reduced-cost
//     refresh, and artificial eviction skip the structurally-zero tail
//     without reading it. Pivoting unions the pivot row's extent into each
//     touched row (fill-in only ever widens an extent).
//   - runs packs the scaled pivot row's nonzero columns into contiguous
//     [start, end) intervals (zero-gaps up to runGap wide are bridged), so
//     each row elimination walks a handful of contiguous slices — dense
//     enough for bounds-check-free sequential loops, sparse enough to skip
//     the structural zero blocks that make up half of these rows.
//
// Skipping exact zeros is bit-compatible with the dense loops: subtracting
// f·0 never changes a float64 (the sign-of-zero corner −0−(−0) aside), so
// the pivot sequence and every emitted value match the dense tableau.
//
// A third structure skips columns that nothing reads: dead marks columns the
// eliminations leave stale (see markDeadSlacks and reviveSlacks). Every
// column's arithmetic is independent of every other column's, so leaving
// one out changes no value in the columns that are kept.
//
// A tableau larger than a core's L2 cache delays its row eliminations:
// pivot queues them and flush applies batchSize pivots at a time, row by
// row, so each row stays in cache across the batch instead of the whole
// tableau streaming through it once per pivot. Everything but the tableau
// rows (reduced costs, basic values, statuses, extents) stays eager. Each
// entry still receives the same operations in the same pivot order, so the
// values are bit-identical to applying every pivot at once.
type tableauState struct {
	m, n   int // rows, total columns (structural + slack + artificial)
	stride int // row stride of a (≥ n)
	nCols  int // structural + slack columns; artificials start here

	a            []float64 // m×stride flat row-major working tableau
	extLo, extHi []int32   // per-row nonzero extent [extLo, extHi)
	runs         []int32   // nonzero runs of the queued scaled pivot rows, (start, end) pairs
	colBuf       []float64 // scratch: the entering column, gathered once per pivot
	dead         []bool    // per column: left out of the eliminations (stale)

	// The elimination queue (see pivot and flush). batch pivots are queued
	// before a flush applies them to every row; nq are pending. Pending
	// pivot q eliminates with the scaled row qVals[q] (indexed by column)
	// over runs[qRunOff[q]:qRunOff[q+1]] and enters column qEnter[q]. Row i
	// still has to receive it while its factor qF[i*batch+q] is nonzero;
	// applying a pivot to a row clears the row's factor. qSplit records
	// that a pending pivot reached splitMinWork.
	batch, nq int
	qEnter    [batchSize]int32
	qRunOff   [batchSize + 1]int32
	qVals     [batchSize][]float64
	qF        []float64 // m×batch factors; colBuf itself when batch is 1
	qv        []float64 // batch×stride copies of the scaled pivot rows (batch > 1)
	qSplit    bool

	// artRow and artSign record, per artificial, its row and the sign σ
	// (−1 if newState flipped the row, else +1) that makes the row's slack
	// column σ times the artificial's column.
	artRow  []int32
	artSign []float64

	xB     []float64   // current values of basic variables, per row
	basis  []int       // basic variable per row
	status []varStatus // per column
	lo, hi []float64   // per column bounds
	cost   []float64   // current phase objective (minimization)
	d      []float64   // reduced costs, maintained incrementally

	// psign folds each column's pricing state into one multiplier so the
	// Dantzig scan is a single fused multiply-compare per column: score =
	// psign_j·d_j, direction = −psign_j, ineligible columns hold 0. hasFree
	// (any free nonbasic column) forces the classification fallback scan.
	psign   []float64
	hasFree bool

	nStruct int // number of structural variables
	nArt    int
	iters   int
	maxIter int
	bland   bool
	degen   int // consecutive degenerate pivots, triggers Bland's rule

	// forceBland pins Bland's rule on from the first pivot (the
	// anti-cycling restart); maxDegenRun records the longest run of
	// consecutive degenerate pivots, the stall evidence that classifies an
	// exhausted iteration budget as cycling.
	forceBland  bool
	maxDegenRun int

	// dFresh is true while the reduced-cost row d is exactly the full
	// recomputation c_j − Σ c_B·T[·][j] (no incremental pivot updates have
	// touched it since). Optimality may only be declared when it is true;
	// otherwise iterate runs a verification sweep first.
	dFresh bool

	// ctx, when non-nil, is polled every ctxCheckEvery pivots for
	// cooperative cancellation.
	ctx   context.Context
	stats *Stats
}

// Solve optimizes the problem and returns the solution. A non-Optimal
// outcome is reported both in Solution.Status and as an error wrapping
// ErrNotOptimal, so callers may either branch on the status or simply
// propagate the error. ctx is polled every few dozen pivots, and a done
// context aborts the solve with status Canceled (the error unwraps to
// ctx.Err()). ws, when non-nil, donates tableau buffers; nil means fresh
// buffers. The returned Solution does not alias workspace memory, so it
// stays valid across later solves through ws.
//
// Beyond the plain simplex run it layers three self-healing guards:
//
//  1. A problem marked malformed at insertion time (NaN/Inf data) is
//     re-validated and rejected with status Malformed before any pivoting.
//  2. An exhausted iteration budget triggers one full restart under
//     Bland's anti-cycling rule; if the restart also exhausts the budget
//     while stalling on degenerate pivots, the error wraps ErrCycling.
//  3. Every Optimal basis is verified against the original problem data
//     (finite values, bounds, primal residuals). A failed verification
//     triggers one deterministic retry on a row-equilibrated copy with a
//     tiny feasibility-preserving RHS relaxation; if that solution fails
//     verification too, the error wraps ErrNumerical.
//
// The guards only engage on failure, so healthy solves return bit-identical
// results to the unguarded simplex.
func (p *Problem) Solve(ctx context.Context, ws *Workspace) (*Solution, error) {
	if ws == nil {
		ws = &Workspace{}
	}
	return p.solveGuarded(ctx, ws, false)
}

// SolveInto is the zero-allocation hot path: like Solve, but the returned
// Solution and its vectors alias buffers owned by ws and stay valid only
// until the next solve through ws. Callers that keep results beyond that
// must copy what they need. The numbers are bit-identical to Solve; only
// the buffer ownership differs. ws must be non-nil.
func (p *Problem) SolveInto(ctx context.Context, ws *Workspace) (*Solution, error) {
	return p.solveGuarded(ctx, ws, true)
}

// solvedHook, when non-nil, sees every Optimal solution together with its
// problem as the solve returns. Tests install it to audit the certificate of
// every LP a pipeline solves; production code never sets it.
var solvedHook func(p *Problem, sol *Solution)

func (p *Problem) solveGuarded(ctx context.Context, ws *Workspace, reuse bool) (*Solution, error) {
	var sol *Solution
	var err error
	if tr := ws.Trace; tr != nil {
		clk := tr.Begin()
		pivots0 := ws.Stats.Pivots
		sol, err = p.solveGuardedInner(ctx, ws, reuse)
		var code int32
		if sol != nil {
			code = int32(sol.Status)
		}
		tr.End(clk, telemetry.SpanLPSolve, 0, ws.Stats.Pivots-pivots0, code)
	} else {
		sol, err = p.solveGuardedInner(ctx, ws, reuse)
	}
	if solvedHook != nil && err == nil {
		solvedHook(p, sol)
	}
	return sol, err
}

func (p *Problem) solveGuardedInner(ctx context.Context, ws *Workspace, reuse bool) (*Solution, error) {
	ws.Stats.Solves++
	if p.defect != nil {
		// Insertion noted a defect, but SetRHS/SetCost may have overwritten
		// the bad value since; only reject if the problem is still sick.
		if err := p.validate(); err != nil {
			return &Solution{Status: Malformed},
				&StatusError{Status: Malformed, cause: fmt.Errorf("%w: %v", ErrMalformed, err)}
		}
		p.defect = nil
	}

	sol, stalled, err := p.solveOnce(ctx, ws, false, reuse)
	if err != nil && sol.Status == IterLimit {
		// The budget ran out; re-run from scratch with Bland's rule pinned
		// on, which cannot cycle (it may still be slower than the budget).
		rsol, rstalled, rerr := p.solveOnce(ctx, ws, true, reuse)
		if rerr == nil {
			rsol.Restarted = true
		} else if rsol.Status == IterLimit && (stalled || rstalled) {
			rerr = &StatusError{Status: IterLimit, cause: ErrCycling}
		}
		sol, err = rsol, rerr
	}
	if err != nil {
		return sol, err
	}
	if verr := p.verifySolution(sol); verr != nil {
		return p.rescaledRetry(ctx, ws, sol, verr)
	}
	return sol, nil
}

// solveOnce runs both simplex phases once. stalled reports whether the run
// showed cycling-like behavior (a long streak of consecutive degenerate
// pivots). With reuse the returned Solution aliases ws buffers.
func (p *Problem) solveOnce(ctx context.Context, ws *Workspace, forceBland, reuse bool) (*Solution, bool, error) {
	if ctx != nil {
		if cerr := ctx.Err(); cerr != nil {
			return &Solution{Status: Canceled}, false, &StatusError{Status: Canceled, cause: cerr}
		}
	}
	st := p.newState(ws)
	st.ctx = ctx
	if forceBland {
		st.bland, st.forceBland = true, true
	}
	defer ws.stash(st)

	// Phase 1: minimize the sum of artificial variables.
	if st.nArt > 0 {
		st.markDeadSlacks()
		st.setPhase1Costs()
		status := st.iterate()
		if status != Optimal {
			sol, err := p.finish(st, status, ws, reuse)
			return sol, st.stalled(), err
		}
		if st.phase1Objective() > 1e-6 {
			sol, err := p.finish(st, Infeasible, ws, reuse)
			return sol, st.stalled(), err
		}
		st.evictArtificials()
		st.reviveSlacks()
	}

	// Phase 2: the real objective.
	st.setPhase2Costs(p)
	status := st.iterate()
	sol, err := p.finish(st, status, ws, reuse)
	return sol, st.stalled(), err
}

// stalled reports whether the run's longest degenerate-pivot streak is
// long enough to suggest cycling rather than an honestly large LP.
func (st *tableauState) stalled() bool {
	return st.maxDegenRun > st.m+16
}

// row returns row i of the flat tableau, sliced to the live n columns.
func (st *tableauState) row(i int) []float64 {
	base := i * st.stride
	return st.a[base : base+st.n]
}

// newState builds the initial tableau, slacks, artificials and starting
// basis for the problem, drawing buffers from ws. The construction mirrors
// the previous ragged-row build operation for operation (term accumulation
// order, row flips, residual scans), so results are bit-identical.
func (p *Problem) newState(ws *Workspace) *tableauState {
	m := len(p.rows)
	nStruct := len(p.cost)

	st := &ws.st
	*st = tableauState{
		m:       m,
		nStruct: nStruct,
		stats:   &ws.Stats,
	}

	// Column layout: [structural | one slack per row | artificials as
	// needed]. The stride reserves the worst case of one artificial per
	// row up front, so no row ever has to move.
	nCols := nStruct + m
	st.nCols = nCols
	st.stride = nCols + m

	st.lo = append(ws.lo[:0], p.lo...)
	st.hi = append(ws.hi[:0], p.hi...)
	for _, r := range p.rows {
		slo, shi := slackBounds(r)
		st.lo = append(st.lo, slo)
		st.hi = append(st.hi, shi)
	}

	// Initial nonbasic statuses and values for structural + slack columns.
	if cap(ws.status) >= nCols {
		st.status = ws.status[:nCols]
	} else {
		st.status = make([]varStatus, nCols)
		ws.Stats.AllocBytes += int64(nCols)
	}
	for j := 0; j < nCols; j++ {
		st.status[j] = initialStatus(st.lo[j], st.hi[j])
	}

	// Flat rows, zeroed over the full stride before the term fill so every
	// column an extent can ever grow into holds an exact zero. A freshly
	// allocated backing array is already zero; a reused one is only dirty
	// inside the previous solve's per-row extents (every tableau write —
	// term fill, flips, eliminations, fill-in — lands inside them), so a
	// same-shaped reuse clears just those spans instead of the full m×stride
	// block.
	fresh := cap(ws.a) < m*st.stride
	sameShape := !fresh && ws.aM == m && ws.aStride == st.stride
	st.a = ws.f64(ws.a, m*st.stride)
	prevLo, prevHi := ws.extLo, ws.extHi
	st.extLo = ws.i32(ws.extLo, m)
	st.extHi = ws.i32(ws.extHi, m)
	ws.aM, ws.aStride = m, st.stride
	st.runs = ws.runs[:0]
	st.batch = batchFor(m, st.stride)
	st.dead = ws.bools(ws.dead, st.stride)
	ws.dead = st.dead
	clear(st.dead)
	st.artRow = ws.artRow[:0]
	st.artSign = ws.artSign[:0]
	rhs := ws.f64(ws.rhs, m)
	ws.rhs = rhs
	for i, r := range p.rows {
		rowv := st.a[i*st.stride : (i+1)*st.stride]
		if !fresh {
			if sameShape && i < len(prevLo) && i < len(prevHi) {
				clear(rowv[prevLo[i]:prevHi[i]])
			} else {
				clear(rowv)
			}
		}
		for _, tm := range r.terms {
			rowv[tm.Var] += tm.Coef
		}
		rowv[nStruct+i] = 1 // slack
		rhs[i] = r.rhs
	}

	// Precompute the nonbasic value of every column once; the residual
	// scans below read it m·n times.
	nbv := ws.f64(ws.nbv, nCols)
	ws.nbv = nbv
	for j := 0; j < nCols; j++ {
		nbv[j] = nonbasicValue(st.status[j], st.lo[j], st.hi[j])
	}

	// Residuals at the initial nonbasic point decide the starting basis.
	if cap(ws.basis) >= m {
		st.basis = ws.basis[:m]
	} else {
		st.basis = make([]int, m)
	}
	st.xB = ws.f64(ws.xB, m)
	ws.xB = st.xB
	st.colBuf = ws.f64(ws.colBuf, m)
	ws.colBuf = st.colBuf
	// A batch of one is flushed before the next gather, so its factors
	// can live in the gathered column itself.
	st.qF = st.colBuf
	if st.batch > 1 {
		st.qF = ws.f64(ws.qF, m*st.batch)
		ws.qF = st.qF
		st.qv = ws.f64(ws.qv, st.batch*st.stride)
		ws.qv = st.qv
	}
	st.cost = ws.cost
	st.d = ws.d
	st.psign = ws.psign
	for i := 0; i < m; i++ {
		rowv := st.a[i*st.stride : (i+1)*st.stride]
		res := rhs[i]
		for j, v := range rowv[:nCols] {
			res -= v * nbv[j]
		}
		slack := nStruct + i
		if res >= st.lo[slack]-tolFeas && res <= st.hi[slack]+tolFeas {
			// The slack itself can carry the residual: no artificial needed.
			st.basis[i] = slack
			st.xB[i] = clamp(res, st.lo[slack], st.hi[slack])
			st.status[slack] = basic
			st.extLo[i], st.extHi[i] = 0, int32(slack+1)
			continue
		}
		// Need an artificial. Scale the row so the artificial is +1 with a
		// non-negative basic value. The flip covers the columns that exist
		// at this point (structural, slacks, artificials created so far),
		// matching the previous ragged-row behavior exactly.
		sign := 1.0
		if res < 0 {
			for j := 0; j < nCols+st.nArt; j++ {
				rowv[j] = -rowv[j]
			}
			res = -res
			sign = -1
		}
		art := nCols + st.nArt
		st.lo = append(st.lo, 0)
		st.hi = append(st.hi, Inf)
		st.status = append(st.status, basic)
		st.artRow = append(st.artRow, int32(i))
		st.artSign = append(st.artSign, sign)
		rowv[art] = 1
		st.basis[i] = art
		st.xB[i] = res
		st.nArt++
		st.extLo[i], st.extHi[i] = 0, int32(art+1)
	}
	st.n = len(st.lo)

	st.maxIter = p.MaxIter
	if st.maxIter == 0 {
		st.maxIter = 200*(st.m+st.n) + 2000
	}
	return st
}

func slackBounds(r row) (lo, hi float64) {
	if r.isRange {
		return 0, r.rhs - r.rangeLo
	}
	switch r.op {
	case LE:
		return 0, Inf
	case GE:
		return math.Inf(-1), 0
	case EQ:
		return 0, 0
	default:
		panic(fmt.Sprintf("linprog: unknown op %d", r.op))
	}
}

func initialStatus(lo, hi float64) varStatus {
	switch {
	case !math.IsInf(lo, -1):
		return atLower
	case !math.IsInf(hi, 1):
		return atUpper
	default:
		return freeZero
	}
}

func nonbasicValue(s varStatus, lo, hi float64) float64 {
	switch s {
	case atLower:
		return lo
	case atUpper:
		return hi
	default:
		return 0
	}
}

func clamp(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

func (st *tableauState) setPhase1Costs() {
	st.cost = f64buf(st.cost, st.n)
	for j := range st.cost {
		st.cost[j] = 0
	}
	for j := st.n - st.nArt; j < st.n; j++ {
		st.cost[j] = 1
	}
	st.recomputeReducedCosts()
	st.initPricingSigns()
}

func (st *tableauState) setPhase2Costs(p *Problem) {
	st.cost = f64buf(st.cost, st.n)
	for j := range st.cost {
		st.cost[j] = 0
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1 // internally always minimize
	}
	for j := 0; j < st.nStruct; j++ {
		st.cost[j] = sign * p.cost[j]
	}
	// Artificials must never re-enter: pin them to 0.
	for j := st.n - st.nArt; j < st.n; j++ {
		st.lo[j], st.hi[j] = 0, 0
		if st.status[j] != basic {
			st.status[j] = atLower
		}
	}
	st.recomputeReducedCosts()
	st.initPricingSigns()
}

func (st *tableauState) phase1Objective() float64 {
	sum := 0.0
	for i, b := range st.basis {
		if b >= st.n-st.nArt {
			sum += st.xB[i]
		}
	}
	return sum
}

// evictArtificials pivots basic artificial variables (necessarily at value
// ~0 after a feasible phase 1) out of the basis where possible. Rows whose
// non-artificial entries are all zero are redundant and keep their
// artificial basic at 0, pinned by its [0,0] bounds.
func (st *tableauState) evictArtificials() {
	for i := 0; i < st.m; i++ {
		if st.basis[i] < st.n-st.nArt {
			continue
		}
		pivCol, pivAbs := -1, tolPivot
		st.applyPending(i) // earlier evictions may still be queued
		row := st.row(i)
		hi := st.n - st.nArt
		if h := int(st.extHi[i]); h < hi {
			hi = h // entries past the extent are exact zeros
		}
		for j := int(st.extLo[i]); j < hi; j++ {
			if st.status[j] == basic || st.lo[j] == st.hi[j] {
				continue
			}
			if a := math.Abs(row[j]); a > pivAbs {
				pivAbs, pivCol = a, j
			}
		}
		if pivCol >= 0 {
			st.gatherColumn(pivCol) // pivot reads the entering column from colBuf
			st.pivot(i, pivCol, nonbasicValue(st.status[pivCol], st.lo[pivCol], st.hi[pivCol]))
		}
	}
}

// skipDeadColumns switches the dead-column skipping of markDeadSlacks and
// reviveSlacks; tests turn it off to compare against full eliminations.
var skipDeadColumns = true

// markDeadSlacks leaves the fixed slack of every row with an artificial out
// of the phase-1 eliminations. Such a slack starts as σ times its row's
// artificial column, and row operations keep it so (negation is exact), so
// it carries no information of its own; being fixed, it can never enter,
// and evictArtificials skips fixed columns.
func (st *tableauState) markDeadSlacks() {
	if !skipDeadColumns {
		return
	}
	for _, i := range st.artRow {
		if s := st.nStruct + int(i); st.lo[s] == st.hi[s] {
			st.dead[s] = true
		}
	}
}

// reviveSlacks runs at the phase boundary, after evictArtificials: it
// rebuilds each dead slack column as σ times its artificial's column, which
// is bit for bit what eliminating it all along would have left (up to the
// sign of zeros, which no reader of the column can see), and then retires
// the artificials instead. Phase 2 pins them at [0, 0], so pricing never
// selects them, the ratio test reads only the entering column, and the
// duals come from the slacks: nothing reads an artificial column again.
func (st *tableauState) reviveSlacks() {
	if !skipDeadColumns {
		return
	}
	st.flush()
	for i := 0; i < st.m; i++ {
		row := st.row(i)
		lo, hi := int(st.extLo[i]), int(st.extHi[i])
		for k, r := range st.artRow {
			s := st.nStruct + int(r)
			if !st.dead[s] {
				continue
			}
			v := 0.0
			if a := st.nCols + k; a >= lo && a < hi {
				v = st.artSign[k] * row[a]
			}
			if s < lo || s >= hi {
				if v == 0 {
					continue // outside the extent the entry is already an exact zero
				}
				lo, hi = min(lo, s), max(hi, s+1)
				st.extLo[i], st.extHi[i] = int32(lo), int32(hi)
			}
			row[s] = v
		}
	}
	for _, r := range st.artRow {
		st.dead[st.nStruct+int(r)] = false
	}
	for j := st.nCols; j < st.n; j++ {
		st.dead[j] = true
	}
}

// recomputeReducedCosts rebuilds the reduced-cost row d from scratch:
// d_j = c_j − Σ_i c_{B(i)}·T[i][j]. Each row contributes only over its
// nonzero extent; entries outside it are exact zeros and cannot change d.
func (st *tableauState) recomputeReducedCosts() {
	st.flush()
	st.d = append(st.d[:0], st.cost...)
	d := st.d
	for i := 0; i < st.m; i++ {
		cb := st.cost[st.basis[i]]
		if cb == 0 {
			continue
		}
		row := st.row(i)
		lo, hi := int(st.extLo[i]), int(st.extHi[i])
		axpyNeg(cb, row[lo:hi], d[lo:hi])
	}
	st.dFresh = true
	st.stats.Refreshes++
}

// iterate runs simplex pivots until optimality, unboundedness, the
// iteration budget, or cancellation.
//
// Optimality is never declared off the incrementally-maintained reduced
// costs alone: when pricing finds no eligible column, a verification sweep
// recomputes d from the tableau and re-prices over all n columns. Only a
// clean sweep returns Optimal; anything it finds resumes pivoting. This
// closes the premature-optimality hole where a stale d row hides a
// still-improvable column.
func (st *tableauState) iterate() Status {
	sinceRefresh := 0
	sinceCtx := 0
	for ; st.iters < st.maxIter; st.iters++ {
		if st.ctx != nil {
			if sinceCtx++; sinceCtx >= ctxCheckEvery {
				sinceCtx = 0
				if st.ctx.Err() != nil {
					return Canceled
				}
			}
		}
		if sinceRefresh >= refreshEvery {
			st.recomputeReducedCosts()
			sinceRefresh = 0
		}
		enter, dir := st.chooseEntering()
		if enter < 0 {
			if st.dFresh {
				return Optimal
			}
			// Verification sweep: full refresh, then re-price everything.
			st.recomputeReducedCosts()
			sinceRefresh = 0
			enter, dir = st.chooseEntering()
			if enter < 0 {
				return Optimal
			}
			st.stats.SweepResumes++
		}
		flip, leaveRow, theta := st.ratioTest(enter, dir)
		if math.IsInf(theta, 1) {
			return Unbounded
		}
		if theta <= tolFeas {
			st.degen++
			if st.degen > st.maxDegenRun {
				st.maxDegenRun = st.degen
			}
			if st.degen > 2*(st.m+64) {
				st.bland = true
			}
		} else {
			st.degen = 0
			if st.bland && !st.forceBland {
				st.bland = false
			}
		}
		if flip {
			// Bound flip: the entering variable runs to its other bound;
			// no basis change, and d is untouched.
			e32 := int32(enter)
			for i := 0; i < st.m; i++ {
				if e32 < st.extLo[i] || e32 >= st.extHi[i] {
					continue // exact zero column entry
				}
				st.xB[i] -= dir * theta * st.colBuf[i]
			}
			if st.status[enter] == atLower {
				st.status[enter] = atUpper
			} else {
				st.status[enter] = atLower
			}
			st.psign[enter] = pricingSign(st.status[enter], st.lo[enter], st.hi[enter])
			st.stats.BoundFlips++
			sinceRefresh++
			continue
		}
		entVal := nonbasicValue(st.status[enter], st.lo[enter], st.hi[enter]) + dir*theta
		st.updateBasics(enter, dir, theta)
		st.pivot(leaveRow, enter, entVal)
		sinceRefresh++
	}
	return IterLimit
}

// chooseEntering picks the entering column and its direction (+1 =
// increasing, −1 = decreasing), or (-1, 0) when pricing sees no eligible
// column. It is the exact Dantzig rule: scan all n columns for the largest
// reduced-cost violation (first eligible index under Bland).
// The hot path folds each column's status into the maintained pricing sign
// (see initPricingSigns): score = psign_j·d_j is bit-identical to the
// branchy per-status computation ((−1)·d and (+1)·d are exact), ineligible
// columns carry sign 0 and can never beat the tolerance, and the strict >
// keeps the same lowest-index tie-breaking. Free columns need a per-sign
// direction choice that a single multiplier cannot express, so problems
// that have any fall back to the classification scan.
func (st *tableauState) chooseEntering() (int, float64) {
	if st.hasFree {
		return st.chooseEnteringClassify()
	}
	d := st.d[:st.n]
	ps := st.psign[:st.n]
	ps = ps[:len(d)]
	if st.bland {
		for j, dj := range d {
			if ps[j]*dj > tolReduced {
				return j, -ps[j] // first eligible index
			}
		}
		return -1, 0
	}
	best, bestScore := -1, tolReduced
	for j, dj := range d {
		if s := ps[j] * dj; s > bestScore {
			best, bestScore = j, s
		}
	}
	if best < 0 {
		return -1, 0
	}
	return best, -ps[best]
}

// chooseEnteringClassify is the classification form of the Dantzig scan,
// kept for problems with free variables (none of the repo's LPs have any,
// but the solver stays general).
func (st *tableauState) chooseEnteringClassify() (int, float64) {
	best, bestScore, bestDir := -1, tolReduced, 0.0
	for j := 0; j < st.n; j++ {
		if st.status[j] == basic || st.lo[j] == st.hi[j] {
			continue
		}
		dj := st.d[j]
		var score, dir float64
		switch st.status[j] {
		case atLower:
			score, dir = -dj, 1
		case atUpper:
			score, dir = dj, -1
		case freeZero:
			if dj < 0 {
				score, dir = -dj, 1
			} else {
				score, dir = dj, -1
			}
		}
		if score <= tolReduced {
			continue
		}
		if st.bland {
			return j, dir // first eligible index
		}
		if score > bestScore {
			best, bestScore, bestDir = j, score, dir
		}
	}
	return best, bestDir
}

// pricingSign is the per-column multiplier of the fast Dantzig scan:
// psign_j·d_j reproduces the reduced-cost violation score exactly
// (atLower → −d_j, atUpper → +d_j) and the entering direction is −psign_j.
// Basic and fixed columns get 0 so they can never price in; free columns
// also get 0 and force the fallback scan via hasFree.
func pricingSign(s varStatus, lo, hi float64) float64 {
	if s == basic || lo == hi {
		return 0
	}
	switch s {
	case atLower:
		return -1
	case atUpper:
		return 1
	default:
		return 0
	}
}

// initPricingSigns (re)derives every column's pricing sign from its status
// and bounds. Called at each phase start; pivots and bound flips maintain
// the array incrementally afterwards.
func (st *tableauState) initPricingSigns() {
	st.psign = f64buf(st.psign, st.n)
	st.hasFree = false
	for j := 0; j < st.n; j++ {
		st.psign[j] = pricingSign(st.status[j], st.lo[j], st.hi[j])
		if st.status[j] == freeZero && st.lo[j] != st.hi[j] {
			st.hasFree = true
		}
	}
}

// gatherColumn copies the entering column's in-extent entries into colBuf,
// so the ratio test, basic-value update, bound flips, and the pivot's row
// multipliers read it sequentially instead of each re-walking the strided
// tableau. Entries outside a row's extent are exact zeros and are never
// read (every consumer repeats the extent check), so they are not written.
// Then each pending pivot that changes the column, by a run covering it or
// by having entered it, is applied to the column's entries in queue order,
// exactly as flush will apply it to the rows: a row it touches holds the
// column inside its extent, which took in the pivot row's.
func (st *tableauState) gatherColumn(enter int) {
	col := st.colBuf
	e32 := int32(enter)
	for i := 0; i < st.m; i++ {
		if e32 < st.extLo[i] || e32 >= st.extHi[i] {
			continue
		}
		col[i] = st.a[i*st.stride+enter]
	}
	for q := 0; q < st.nq; q++ {
		hit, x := false, 0.0
		runs := st.runs[st.qRunOff[q]:st.qRunOff[q+1]]
		for k := 0; k < len(runs) && runs[k] <= e32; k += 2 {
			if e32 < runs[k+1] {
				hit, x = true, st.qVals[q][enter]
				break
			}
		}
		entered := st.qEnter[q] == e32
		if !hit && !entered {
			continue
		}
		for i := range col {
			f := st.qF[i*st.batch+q]
			if f == 0 {
				continue
			}
			if hit {
				col[i] -= float64(f * x) // rounded product, as axpyNeg: never fused
			}
			if entered {
				col[i] = 0
			}
		}
	}
}

// ratioTest determines how far the entering variable can move. It returns
// flip=true when the binding limit is the entering variable's own opposite
// bound, otherwise the leaving row index and the step length. Rows whose
// extent excludes the entering column hold an exact zero there and are
// skipped without touching the tableau. As a side effect it gathers the
// entering column into colBuf for the rest of the pivot.
func (st *tableauState) ratioTest(enter int, dir float64) (flip bool, leaveRow int, theta float64) {
	st.gatherColumn(enter)
	theta = Inf
	// The entering variable's own range.
	if !math.IsInf(st.lo[enter], -1) && !math.IsInf(st.hi[enter], 1) {
		theta = st.hi[enter] - st.lo[enter]
	}
	flip = true
	leaveRow = -1
	bestPiv := 0.0
	e32 := int32(enter)
	for i := 0; i < st.m; i++ {
		if e32 < st.extLo[i] || e32 >= st.extHi[i] {
			continue
		}
		t := st.colBuf[i]
		rate := -dir * t // d(xB_i)/dθ
		var lim float64
		switch {
		case rate > tolPivot:
			if math.IsInf(st.hi[st.basis[i]], 1) {
				continue
			}
			lim = (st.hi[st.basis[i]] - st.xB[i]) / rate
		case rate < -tolPivot:
			if math.IsInf(st.lo[st.basis[i]], -1) {
				continue
			}
			lim = (st.xB[i] - st.lo[st.basis[i]]) / -rate
		default:
			continue
		}
		if lim < -tolFeas {
			lim = 0
		}
		replace := false
		if lim < theta-tolFeas {
			replace = true
		} else if lim < theta+tolFeas && leaveRow >= 0 {
			// Tie-break on pivot magnitude for stability, or on smallest
			// basis index under Bland's rule.
			if st.bland {
				replace = st.basis[i] < st.basis[leaveRow]
			} else {
				replace = math.Abs(t) > bestPiv
			}
		} else if lim < theta+tolFeas && leaveRow < 0 && lim <= theta {
			replace = true
		}
		if replace {
			theta = math.Min(theta, math.Max(lim, 0))
			leaveRow = i
			bestPiv = math.Abs(t)
			flip = false
		}
	}
	if leaveRow < 0 && math.IsInf(theta, 1) {
		return false, -1, Inf // unbounded
	}
	return flip, leaveRow, theta
}

// updateBasics applies the step to every basic value, including the leaving
// row: the leaving variable lands exactly on the bound it hit, which pivot
// then uses to classify it before the entering variable takes its slot.
func (st *tableauState) updateBasics(enter int, dir, theta float64) {
	if theta == 0 {
		return
	}
	e32 := int32(enter)
	for i := 0; i < st.m; i++ {
		if e32 < st.extLo[i] || e32 >= st.extHi[i] {
			continue // exact zero column entry
		}
		st.xB[i] -= dir * theta * st.colBuf[i]
	}
}

// runGap is the widest zero-gap bridged into a nonzero run of the scaled
// pivot row. Bridged zeros are eliminated like any dense column (an exact
// no-op), trading a little redundant arithmetic for long contiguous runs
// whose inner loops the compiler keeps bounds-check-free.
const runGap = 8

// splitMinWork is the smallest pivot, in rows times scaled-pivot-row run
// width, whose row eliminations a flush splits between two goroutines when
// more than one processor is available. Only the Appendix-B α LP (up to
// ~1.5M per pivot) reaches it; the Eq.-21 (~0.5M) and Stage-1 LPs stay
// below, so the searches that already run their candidates in parallel
// never split.
const splitMinWork = 1 << 20

// batchSize is the number of pivots a tableau of at least batchMinBytes
// (m rows × stride × 8 B, more than a core's 2 MB L2 cache) queues before
// a flush applies them. A smaller tableau stays in cache across pivots and
// flushes every pivot, the eager elimination.
const (
	batchSize     = 8
	batchMinBytes = 2 << 20
)

// forceSplit makes every flush split regardless of its size and of
// GOMAXPROCS; forceBatch, when positive, sets every tableau's batch size
// regardless of its size. Tests set them to exercise the concurrent and
// delayed paths.
var (
	forceSplit bool
	forceBatch int
)

// batchFor is the number of pivots an m-row tableau of the given stride
// queues before a flush.
func batchFor(m, stride int) int {
	switch {
	case forceBatch > 0:
		return forceBatch
	case m*stride*8 >= batchMinBytes:
		return batchSize
	default:
		return 1
	}
}

// pivot makes column enter basic in row r with the entering value entVal.
// It brings row r current, scales it, packs its nonzero columns once into
// contiguous runs, and queues the row elimination: every other row whose
// extent holds the entering column and whose entry there (colBuf) is
// nonzero takes that entry as its factor and has its extent widened now.
// The reduced-cost row d is updated at once; the rows wait for flush, which
// runs when the queue is full. The update order over columns is ascending,
// exactly as the dense loop's, so all produced values are bit-identical.
// Dead columns are left out of the runs like zeros.
func (st *tableauState) pivot(r, enter int, entVal float64) {
	leave := st.basis[r]
	// Classify the leaving variable at whichever bound it reached.
	lv := st.xB[r] // value before replacement, already stepped to its bound
	if !math.IsInf(st.lo[leave], -1) && math.Abs(lv-st.lo[leave]) <= math.Abs(lv-st.hi[leave]) {
		st.status[leave] = atLower
	} else if !math.IsInf(st.hi[leave], 1) {
		st.status[leave] = atUpper
	} else {
		st.status[leave] = atLower // free variable leaving: pin at lower (finite by construction)
	}
	st.psign[leave] = pricingSign(st.status[leave], st.lo[leave], st.hi[leave])

	st.applyPending(r)
	prow := st.row(r)
	piv := prow[enter]
	inv := 1 / piv
	exLo, exHi := st.extLo[r], st.extHi[r]
	dead := st.dead[:exHi]
	q := st.nq
	runs := st.runs
	curStart, lastNz, width := -1, -1, 0
	for j := int(exLo); j < int(exHi); j++ {
		v := prow[j] * inv
		prow[j] = v
		if v != 0 && !dead[j] {
			if curStart < 0 {
				curStart = j
			} else if j-lastNz > runGap {
				runs = append(runs, int32(curStart), int32(lastNz+1))
				width += lastNz + 1 - curStart
				curStart = j
			}
			lastNz = j
		}
	}
	if curStart >= 0 {
		runs = append(runs, int32(curStart), int32(lastNz+1))
		width += lastNz + 1 - curStart
	}
	st.runs = runs
	st.qRunOff[q+1] = int32(len(runs))
	runs = runs[st.qRunOff[q]:]

	// A later queued pivot may rewrite row r before the flush, so a batch
	// keeps a copy of the scaled runs; a flush every pivot reads the row.
	vals := prow
	if st.batch > 1 {
		vals = st.qv[q*st.stride : (q+1)*st.stride]
		for k := 0; k < len(runs); k += 2 {
			s, e := runs[k], runs[k+1]
			copy(vals[s:e], prow[s:e])
		}
	}
	st.qVals[q], st.qEnter[q] = vals, int32(enter)
	e32 := int32(enter)
	for i := 0; i < st.m; i++ {
		f := 0.0 // an exact zero in the entering column: the row skips the pivot
		if i != r && e32 >= st.extLo[i] && e32 < st.extHi[i] {
			f = st.colBuf[i]
		}
		st.qF[i*st.batch+q] = f
		if f != 0 {
			// Fill-in can only land on the pivot row's extent: union it.
			st.extLo[i] = min(st.extLo[i], exLo)
			st.extHi[i] = max(st.extHi[i], exHi)
		}
	}
	st.nq++
	if st.m*width >= splitMinWork {
		st.qSplit = true
	}

	if f := st.d[enter]; f != 0 {
		for k := 0; k < len(runs); k += 2 {
			s, e := int(runs[k]), int(runs[k+1])
			axpyNeg(f, prow[s:e], st.d[s:e])
		}
		st.d[enter] = 0
	}
	st.basis[r] = enter
	st.status[enter] = basic
	st.psign[enter] = 0
	st.xB[r] = entVal
	st.dFresh = false
	st.stats.Pivots++
	if st.nq == st.batch {
		st.flush()
	}
}

// flush applies every pending pivot to every row and empties the queue.
// Each row's eliminations depend only on itself and the queue, so a batch
// holding a pivot of at least splitMinWork hands the upper half of the rows
// to a helper goroutine without changing any value.
func (st *tableauState) flush() {
	if st.nq == 0 {
		return
	}
	if forceSplit || st.qSplit && runtime.GOMAXPROCS(0) > 1 {
		mid := st.m / 2
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			st.applyRows(mid, st.m)
			wg.Done()
		}()
		st.applyRows(0, mid)
		wg.Wait()
	} else {
		st.applyRows(0, st.m)
	}
	st.nq, st.qSplit = 0, false
	st.runs = st.runs[:0]
}

// applyRows brings rows [from, to) current. It writes only those rows, so
// disjoint row blocks may run concurrently. Most rows of a small tableau
// skip a pivot, so only rows with a nonzero factor pay for the call.
func (st *tableauState) applyRows(from, to int) {
	for i := from; i < to; i++ {
		for _, f := range st.qF[i*st.batch : i*st.batch+st.nq] {
			if f != 0 {
				st.applyPending(i)
				break
			}
		}
	}
}

// applyPending applies to row i, in queue order, the pending pivots it has
// not received yet.
func (st *tableauState) applyPending(i int) {
	ri := st.row(i)
	fs := st.qF[i*st.batch : i*st.batch+st.nq]
	for q, f := range fs {
		if f == 0 {
			continue
		}
		x := st.qVals[q]
		runs := st.runs[st.qRunOff[q]:st.qRunOff[q+1]]
		for k := 0; k < len(runs); k += 2 {
			s, e := int(runs[k]), int(runs[k+1])
			axpyNeg(f, x[s:e], ri[s:e])
		}
		ri[st.qEnter[q]] = 0 // exact zero to stop drift
		fs[q] = 0
	}
}

// finish extracts the solution vector, objective and row duals. With reuse
// the Solution and its vectors live in ws and are overwritten by the next
// solve through ws; otherwise they are freshly allocated.
func (p *Problem) finish(st *tableauState, status Status, ws *Workspace, reuse bool) (*Solution, error) {
	st.flush()
	var sol *Solution
	if reuse {
		sol = &ws.sol
		*sol = Solution{Status: status, Iterations: st.iters}
	} else {
		sol = &Solution{Status: status, Iterations: st.iters}
	}
	if status != Optimal {
		serr := &StatusError{Status: status}
		if status == Canceled && st.ctx != nil {
			serr.cause = st.ctx.Err()
		}
		return sol, serr
	}
	var x []float64
	if reuse {
		x = ws.f64(ws.solX, st.n)
		ws.solX = x
		clear(x)
	} else {
		x = make([]float64, st.n)
	}
	for j := 0; j < st.n; j++ {
		if st.status[j] != basic {
			x[j] = nonbasicValue(st.status[j], st.lo[j], st.hi[j])
		}
	}
	for i, b := range st.basis {
		x[b] = st.xB[i]
	}
	sol.x = x[:st.nStruct]
	obj := 0.0
	for j := 0; j < st.nStruct; j++ {
		obj += p.cost[j] * sol.x[j]
	}
	sol.Objective = obj

	// Row duals from the slack columns' reduced costs. Rows scaled by
	// σ_i = ±1 during the artificial setup cancel out: the internal dual
	// ŷ_i = −σ_i·d_slack_i lives in the scaled frame, and converting back
	// to the user frame multiplies by σ_i again, so y_i = −d_slack_i
	// always. The user-facing dual also flips sign for Maximize.
	// Optimality implies d was just fully recomputed (the verification
	// sweep), so the refresh only runs if something invalidated it since.
	if !st.dFresh {
		st.recomputeReducedCosts()
	}
	sign := 1.0
	if p.sense == Maximize {
		sign = -1
	}
	var duals []float64
	if reuse {
		duals = ws.f64(ws.solDuals, st.m)
		ws.solDuals = duals
	} else {
		duals = make([]float64, st.m)
	}
	for i := 0; i < st.m; i++ {
		duals[i] = sign * -st.d[st.nStruct+i]
	}
	sol.duals = duals
	return sol, nil
}

// verifySolution independently re-checks an Optimal solution against the
// original problem data: every value finite and inside its bounds, every
// row residual within tolVerify of its right-hand side(s), relative to the
// row's magnitude. It shares no state with the tableau, so tableau drift
// (accumulated pivot round-off) cannot hide from it.
func (p *Problem) verifySolution(sol *Solution) error {
	for j, x := range sol.x {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return fmt.Errorf("variable %d (%q) is non-finite: %g", j, p.names[j], x)
		}
		scale := 1 + math.Abs(x)
		if x < p.lo[j]-tolVerify*scale || x > p.hi[j]+tolVerify*scale {
			return fmt.Errorf("variable %d (%q) = %g outside bounds [%g, %g]", j, p.names[j], x, p.lo[j], p.hi[j])
		}
	}
	for r := range p.rows {
		rw := &p.rows[r]
		ax, mag := 0.0, 1+math.Abs(rw.rhs)
		for _, t := range rw.terms {
			v := t.Coef * sol.x[t.Var]
			ax += v
			mag += math.Abs(v)
		}
		tol := tolVerify * mag
		var bad bool
		switch {
		case rw.isRange:
			bad = ax < rw.rangeLo-tol || ax > rw.rhs+tol
		case rw.op == LE:
			bad = ax > rw.rhs+tol
		case rw.op == GE:
			bad = ax < rw.rhs-tol
		default: // EQ
			bad = math.Abs(ax-rw.rhs) > tol
		}
		if bad {
			return fmt.Errorf("row %d residual: a·x = %g violates %s %g (tol %g)", r, ax, opString(rw), rw.rhs, tol)
		}
	}
	return nil
}

func opString(rw *row) string {
	if rw.isRange {
		return fmt.Sprintf("range [%g, ·] ≤", rw.rangeLo)
	}
	switch rw.op {
	case LE:
		return "≤"
	case GE:
		return "≥"
	default:
		return "="
	}
}

// rescaledRetry is the last numerical line of defense: the returned basis
// failed verification, so the problem is re-solved once on a copy whose
// rows are equilibrated by exact powers of two (no rounding introduced)
// and whose inequality right-hand sides are relaxed by a tiny
// deterministic slack that preserves feasibility. The retry's solution
// must pass verification against the ORIGINAL problem; otherwise the
// solve fails with an error wrapping ErrNumerical.
//
// The retry always allocates its Solution fresh (never aliasing ws), so
// orig — which may live in ws on the SolveInto path — survives the retry
// solve for forensic return.
func (p *Problem) rescaledRetry(ctx context.Context, ws *Workspace, orig *Solution, verr error) (*Solution, error) {
	q := p.rescaledCopy()
	sol, _, err := q.solveOnce(ctx, ws, false, false)
	if err != nil && sol.Status == IterLimit {
		sol, _, err = q.solveOnce(ctx, ws, true, false)
	}
	if err != nil || p.verifySolution(sol) != nil {
		// Keep the original (claimed-optimal) basis for forensics; the
		// error says its numbers cannot be trusted.
		return orig, fmt.Errorf("%w: %w: %v", ErrNotOptimal, ErrNumerical, verr)
	}
	// Undo the row scaling on the duals: row i was multiplied by s_i, so
	// its shadow price w.r.t. the original rhs is s_i times the scaled one.
	for i, s := range q.retryRowScale {
		sol.duals[i] *= s
	}
	// Recompute the objective against the exact original costs (the copy
	// shares them, but keep the contract explicit).
	obj := 0.0
	for j := range sol.x {
		obj += p.cost[j] * sol.x[j]
	}
	sol.Objective = obj
	sol.Rescaled = true
	return sol, nil
}

// rescaledCopy builds the equilibrated, slightly relaxed clone used by
// rescaledRetry. Row scale factors are exact powers of two, so the scaled
// coefficients are bit-exact multiples and the conditioning change is the
// only difference the simplex sees; the RHS relaxation (1e-9 relative)
// only ever widens the feasible set.
func (p *Problem) rescaledCopy() *Problem {
	q := &Problem{
		sense:   p.sense,
		cost:    p.cost,
		lo:      p.lo,
		hi:      p.hi,
		names:   p.names,
		MaxIter: p.MaxIter,
	}
	q.rows = make([]row, len(p.rows))
	q.retryRowScale = make([]float64, len(p.rows))
	for r := range p.rows {
		rw := p.rows[r]
		maxAbs := 0.0
		for _, t := range rw.terms {
			if a := math.Abs(t.Coef); a > maxAbs {
				maxAbs = a
			}
		}
		s := 1.0
		if maxAbs > 0 && !math.IsInf(maxAbs, 0) {
			// Exact power-of-two equilibration: s·maxAbs ∈ [1, 2).
			s = math.Exp2(float64(-math.Ilogb(maxAbs)))
		}
		const relax = 1e-9
		terms := make([]Term, len(rw.terms))
		for k, t := range rw.terms {
			terms[k] = Term{Var: t.Var, Coef: t.Coef * s}
		}
		nr := row{terms: terms, op: rw.op, isRange: rw.isRange}
		switch {
		case rw.isRange:
			d := relax * (1 + math.Max(math.Abs(rw.rangeLo), math.Abs(rw.rhs)))
			nr.rangeLo = (rw.rangeLo - d) * s
			nr.rhs = (rw.rhs + d) * s
		case rw.op == LE:
			nr.rhs = (rw.rhs + relax*(1+math.Abs(rw.rhs))) * s
		case rw.op == GE:
			nr.rhs = (rw.rhs - relax*(1+math.Abs(rw.rhs))) * s
		default: // EQ: perturbing an equality can destroy feasibility; keep it.
			nr.rhs = rw.rhs * s
		}
		q.rows[r] = nr
		q.retryRowScale[r] = s
	}
	return q
}
