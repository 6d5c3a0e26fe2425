package linprog

import "thermaldc/internal/telemetry"

// Stats counts the work done by solves that went through one Workspace.
// The counters are cumulative; callers that want per-epoch numbers take a
// snapshot and subtract, or use a draining accessor at a higher layer.
type Stats struct {
	// Solves counts completed Solve* calls (any status).
	Solves int64
	// Pivots counts simplex basis changes across both phases, including
	// anti-cycling restarts and rescaled retries.
	Pivots int64
	// BoundFlips counts ratio-test outcomes where the entering variable
	// ran to its opposite bound without a basis change.
	BoundFlips int64
	// Refreshes counts full reduced-cost recomputations (periodic
	// refreshes, phase starts, and optimality verification sweeps).
	Refreshes int64
	// SweepResumes counts the times the pre-optimality verification sweep
	// found a still-eligible column on the freshly recomputed reduced
	// costs and resumed pivoting — each one is a premature exit avoided.
	SweepResumes int64
	// WarmAttempts and WarmHits counted dual-simplex warm starts of a
	// removed solver core.
	//
	// Deprecated: always zero.
	WarmAttempts, WarmHits int64
	// AllocBytes counts bytes of backing buffers solves had to grow. A
	// warmed-up workspace solving same-shaped problems stays at its
	// high-water mark, so this stops increasing in steady state. Capacity
	// set aside by Reserve is not counted: a workspace reserved for its
	// problem's shape reports 0 however its solves vary.
	AllocBytes int64
}

// Add accumulates o into s.
func (s *Stats) Add(o Stats) {
	s.Solves += o.Solves
	s.Pivots += o.Pivots
	s.BoundFlips += o.BoundFlips
	s.Refreshes += o.Refreshes
	s.SweepResumes += o.SweepResumes
	s.AllocBytes += o.AllocBytes
}

// Workspace holds the reusable buffers of repeated Solve calls. Solving
// through a Workspace avoids reallocating the flat tableau every time,
// which matters when one problem skeleton is solved hundreds of times with
// patched coefficients (the CRAC outlet-temperature search) or once per
// controller epoch. Problems of different shapes may share one workspace:
// every buffer is resized (growing only) per solve. The zero value is
// ready to use; a Workspace is NOT safe for concurrent use — give each
// goroutine its own.
type Workspace struct {
	// Stats accumulates solve counters; see Stats.
	Stats Stats

	// Trace, when non-nil, records one telemetry.SpanLPSolve span per
	// guarded solve (wall time, pivot count, terminal status). Leaving it
	// nil keeps solves on the untraced fast path: no clock reads, no span
	// writes, zero allocations.
	Trace *telemetry.Tracer

	a            []float64 // flat row-major tableau, m×stride
	aM, aStride  int       // shape of the last tableau built in a
	extLo, extHi []int32   // per-row nonzero extents
	runs         []int32   // nonzero runs of the queued scaled pivot rows, [start,end) pairs
	qF           []float64 // queued pivots' per-row factors (batched tableaus)
	qv           []float64 // queued pivots' scaled rows (batched tableaus)
	dead         []bool    // per-column dead mask
	artRow       []int32   // per artificial: its row
	artSign      []float64 // per artificial: its row's flip sign σ
	nbv          []float64 // nonbasic-value cache used during the build
	lo, hi       []float64
	status       []varStatus
	basis        []int
	xB           []float64
	colBuf       []float64 // entering-column gather buffer
	rhs          []float64
	cost         []float64
	d            []float64
	psign        []float64 // per-column pricing signs (fast Dantzig scan)

	// Solution buffers for the aliasing SolveInto path.
	solX     []float64
	solDuals []float64
	sol      Solution

	st tableauState // embedded so a warm solve allocates no state object
}

// stash saves the (possibly grown) buffers of a finished solve back into
// the workspace for the next call.
func (ws *Workspace) stash(st *tableauState) {
	ws.a = st.a
	ws.extLo, ws.extHi = st.extLo, st.extHi
	ws.runs = st.runs
	ws.artRow, ws.artSign = st.artRow, st.artSign
	ws.lo, ws.hi = st.lo, st.hi
	ws.status = st.status
	ws.basis = st.basis
	ws.xB = st.xB
	ws.cost = st.cost
	ws.d = st.d
	ws.psign = st.psign
}

// Reserve sizes every buffer for problems of m rows and nStruct structural
// variables at the worst case of one artificial per row, so no later solve
// of that shape grows the workspace, whichever rows need artificials. The
// reserved capacity is not charged to Stats.AllocBytes.
func (ws *Workspace) Reserve(m, nStruct int) {
	nCols := nStruct + m
	n := nCols + m
	batch := batchFor(m, n)
	ws.a = reserve(ws.a, m*n)
	ws.extLo = reserve(ws.extLo, m)
	ws.extHi = reserve(ws.extHi, m)
	ws.runs = reserve(ws.runs, batch*n)[:0]
	if batch > 1 {
		ws.qF = reserve(ws.qF, m*batch)
		ws.qv = reserve(ws.qv, batch*n)
	}
	ws.dead = reserve(ws.dead, n)
	ws.artRow = reserve(ws.artRow, m)[:0]
	ws.artSign = reserve(ws.artSign, m)[:0]
	ws.nbv = reserve(ws.nbv, nCols)
	ws.lo = reserve(ws.lo, n)
	ws.hi = reserve(ws.hi, n)
	ws.status = reserve(ws.status, n)
	ws.basis = reserve(ws.basis, m)
	ws.xB = reserve(ws.xB, m)
	ws.colBuf = reserve(ws.colBuf, m)
	ws.rhs = reserve(ws.rhs, m)
	ws.cost = reserve(ws.cost, n)
	ws.d = reserve(ws.d, n)
	ws.psign = reserve(ws.psign, n)
	ws.solX = reserve(ws.solX, n)
	ws.solDuals = reserve(ws.solDuals, m)
}

// reserve returns buf, or a fresh length-n slice when buf holds fewer than
// n elements of capacity.
func reserve[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf
	}
	return make([]T, n)
}

// f64 returns a length-n float64 slice backed by buf when capacity allows,
// without clearing the contents; growth is charged to Stats.AllocBytes.
func (ws *Workspace) f64(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	ws.Stats.AllocBytes += int64(8 * n)
	return make([]float64, n)
}

// i32 is f64 for int32 slices.
func (ws *Workspace) i32(buf []int32, n int) []int32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	ws.Stats.AllocBytes += int64(4 * n)
	return make([]int32, n)
}

// bools is f64 for bool slices.
func (ws *Workspace) bools(buf []bool, n int) []bool {
	if cap(buf) >= n {
		return buf[:n]
	}
	ws.Stats.AllocBytes += int64(n)
	return make([]bool, n)
}

// f64buf returns a length-n float64 slice backed by buf when capacity
// allows, without clearing the contents.
func f64buf(buf []float64, n int) []float64 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float64, n)
}
