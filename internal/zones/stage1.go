package zones

import (
	"context"
	"fmt"
	"math"
	"runtime/pprof"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"thermaldc/internal/assign"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// budgetTolerance is the slack allowed on the shared power cap when
// deciding that the zones' full-budget solutions already fit (the
// unconstrained shortcut) and that the fleet's base power fits at all.
const budgetTolerance = 1e-9

// powerBudgetSlack mirrors the monolithic solver's absolute power
// tolerance (assign's powerTolerance is 1e-6 kW) so the assembled
// feasibility verdict uses the same yardstick.
const powerBudgetSlack = 1e-6

const (
	// envelopePsi is the ARR-envelope ψ in percent, the paper's.
	envelopePsi = 50
	// gapTol is the master problem's relative optimality gap: the price
	// iteration stops when upper and lower bounds agree to
	// gapTol·max(1, |upper|). It is the tightest gap the cutting planes can
	// certify in float64 at fleet scale — a 100-zone fleet's objective is
	// O(1e5), so demanding much below 1e-8 relative stalls the loop on
	// round-off and buries the master under near-duplicate cuts.
	gapTol = 1e-8
	// maxRounds bounds the price-coordination rounds. The master's
	// cutting-plane model of each zone's concave value function is exact
	// after finitely many cuts, so the bound is a safety net; an exceeded
	// bound falls back to the monolithic solve when one is available and
	// errors otherwise.
	maxRounds = 200
)

// Config tunes the zone-decomposed Stage-1 solver.
type Config struct {
	// Method selected a simplex core when there were two.
	//
	// Deprecated: ignored; every zone LP runs on the flat tableau.
	Method linprog.Method
	// WarmStart enabled dual-simplex warm starts of a removed core.
	//
	// Deprecated: ignored.
	WarmStart bool
	// Parallelism bounds the zone fan-out worker pool under the same
	// policy as the temperature search (tempsearch.Workers): 0 uses
	// GOMAXPROCS, larger requests are clamped to it. Results are identical
	// for every setting.
	Parallelism int
	// Recorder, when non-nil, sends coordination-round and zone-solve spans
	// (and every zone LP's solve spans) to its tracer. Telemetry never
	// changes results.
	Recorder *telemetry.Recorder
}

// Stats describes the last Solve's coordination work.
type Stats struct {
	// Zones is the number of zone subproblems.
	Zones int
	// Rounds counts master iterations (0 when the shortcut fired).
	Rounds int
	// ZoneSolves counts zone LP solves across all rounds. Every zone is
	// solved at least once per Solve; after that, a zone whose budget is
	// unchanged since its previous solve keeps that result and is not
	// re-solved.
	ZoneSolves int
	// Shortcut reports that the full-budget zone solutions already fit
	// under the shared cap, so no price coordination was needed (always
	// the case with a single zone).
	Shortcut bool
	// Converged reports a proven gap ≤ gapTol (Shortcut implies Converged).
	Converged bool
	// Fallback reports that the monolithic solver produced the result.
	Fallback bool
	// UpperBound, LowerBound and Gap are the master's final bounds on the
	// monolithic LP objective (meaningful when Rounds > 0).
	UpperBound, LowerBound, Gap float64
}

// cut is one sampled point of a zone's concave value function V(budget):
// the LP objective and its power-row dual (a supergradient) at one budget,
// yielding the Kelley cut v ≤ Value + Price·(b − Budget).
type cut struct {
	Budget, Value, Price float64
}

// zoneState is the per-zone solve state. Each zone owns its model copy,
// solver and buffers, so the fan-out runs without locks; only the
// goroutine assigned a zone touches it during a round.
type zoneState struct {
	dc     *model.DataCenter // private shallow copy; Pconst is the budget knob
	tm     *thermal.Model
	solver *assign.Stage1Solver
	// idx is the zone's index in the solver; tr (nil when tracing is off)
	// records one SpanZoneSolve per eval on track idx.
	idx int
	tr  *telemetry.Tracer
	// cracIdx and nodeIdx map zone-local CRACs and nodes to global
	// indices (parent indices on the partition path, assembled-order
	// offsets on the fleet path).
	cracIdx []int
	nodeIdx []int
	out     []float64 // zone's slice of the global outlet vector

	// Round state, written by eval. solvedAt is the budget last solved at
	// and solved reports whether the latest eval ran the LP.
	budget   float64
	solvedAt float64
	solved   bool
	last     *assign.Stage1Result // solver-owned scratch, valid until the next solve; nil forces one
	value    float64
	price    float64
	linPow   float64
	basePow  float64
	err      error

	// Retained best solution (deep copies of the solver-owned scratch).
	best struct {
		valid        bool
		value, price float64
		linPow       float64
		corePow, pow []float64
		computePower float64
		cracPower    float64
		totalPower   float64
		feasible     bool
	}

	vMax  float64
	alloc float64 // master-proposed budget above base, rewritten each round

	// cuts is the zone's Kelley cut pool. It survives across Solve calls
	// while out stays bit-identical (a cut bounds V at every budget,
	// whatever the fleet cap) and is cleared when the outlets change or
	// an eval errors.
	cuts []cut
	// full caches the zone's last full-budget (round-0) sample under the
	// same invalidation rules. valid holds only when that sample's power
	// row was slack, so V(b) = value for every b ≥ linPow.
	full struct {
		valid                  bool
		linPow, value, basePow float64
	}
}

// setOutlets copies the zone's slice of the global outlet vector and
// drops everything sampled at different outlets.
func (z *zoneState) setOutlets(cracOut []float64) {
	same := true
	for li, gi := range z.cracIdx {
		if math.Float64bits(z.out[li]) != math.Float64bits(cracOut[gi]) {
			same = false
		}
		z.out[li] = cracOut[gi]
	}
	if !same {
		z.resetPool()
	}
}

// resetPool forgets every value-function sample of the zone.
func (z *zoneState) resetPool() {
	z.cuts = z.cuts[:0]
	z.full.valid = false
}

// Solver solves the Stage-1 LP of a zoned data center at fixed CRAC outlet
// temperatures: per-zone LPs run concurrently, and a small master problem
// splits the shared power cap across zones by Dantzig–Wolfe-style price
// iteration. Each zone's optimal value is a concave piecewise-linear
// function of its budget, and its LP's power-row dual is a supergradient,
// so the master maximizes a cutting-plane model of Σ V_z(b_z) subject to
// Σ b_z ≤ Pconst: every round yields an upper bound (the model) and a
// lower bound (the zones' actual values at the proposed budgets), and the
// loop stops when they meet. When the zones' full-budget solutions already
// fit under the cap, the first round is provably optimal and no master is
// built; with a single zone that path reproduces the monolithic solve bit
// for bit.
//
// A zone's value function depends on its outlets, not on the fleet cap,
// so each zone keeps its cuts across Solve calls while its outlets stay
// bit-identical. It also keeps its last full-budget sample: when every
// zone's power row was slack there, round 0 at any cap the sample
// settles is skipped. A cap step then typically needs one master pour
// plus one confirming LP per zone. Results therefore depend on the
// solve history, within gapTol of a freshly built solver.
//
// A Solver is NOT safe for concurrent use; it owns per-zone LP workspaces.
type Solver struct {
	cfg   Config
	zones []*zoneState
	ncrac int
	nnode int

	// parent/fallback are set on the partition path: the budget is read
	// from parent.Pconst per solve, and fallback reproduces the exact
	// monolithic behavior when the decomposition cannot (zone errors,
	// non-convergence).
	parent   *model.DataCenter
	fallback *assign.Stage1Solver

	// fleetPconst is the fixed budget on the fleet path (parent == nil).
	fleetPconst float64

	segs     []masterSeg // master-problem scratch, reused across rounds
	sorter   segSorter   // reusable sort.Interface over segs (no per-round boxing)
	last     Stats
	bestDual float64
	res      assign.Stage1Result // SolveScratch's retained result buffers

	tr *telemetry.Tracer
}

// NewSolverFromPartition builds a zone solver over part, sharing one ARR
// envelope set (built from the parent at ψ = envelopePsi) across all zones and
// retaining a monolithic fallback solver on the parent. tm is the parent's
// thermal model, reused for the fallback and for single-zone partitions.
func NewSolverFromPartition(part *Partition, tm *thermal.Model, cfg Config) (*Solver, error) {
	arrs, err := assign.NodeARRs(part.Parent, envelopePsi)
	if err != nil {
		return nil, err
	}
	s := &Solver{
		cfg:    cfg,
		parent: part.Parent,
		ncrac:  part.Parent.NCRAC(),
		nnode:  part.Parent.NCN(),
	}
	s.fallback = s.configure(assign.NewStage1Solver(part.Parent, tm, arrs))
	for _, z := range part.Zones {
		ztm := tm
		if len(part.Zones) > 1 {
			if ztm, err = thermal.New(z.DC); err != nil {
				return nil, fmt.Errorf("zones: zone %d thermal model: %w", z.ID, err)
			}
		}
		s.zones = append(s.zones, &zoneState{
			dc:      z.DC,
			tm:      ztm,
			solver:  s.configure(assign.NewStage1Solver(z.DC, ztm, arrs)),
			cracIdx: z.CRACs,
			nodeIdx: z.Nodes,
			out:     make([]float64, len(z.CRACs)),
		})
	}
	s.wire()
	return s, nil
}

// NewFleetSolver builds a zone solver over a factored fleet: zones of the
// same variant share that variant's thermal model (safe — thermal models
// are read-only after construction) and all zones share one ARR envelope
// set, so per-zone setup cost is one LP skeleton, not a scenario build.
// The fleet path has no monolithic fallback — materializing the fleet-wide
// LP is exactly what it exists to avoid — so unconverged coordination
// (never observed; see maxRounds) surfaces as an error.
func NewFleetSolver(f *Fleet, cfg Config) (*Solver, error) {
	arrs, err := assign.NodeARRs(f.Variants[0].DC, envelopePsi)
	if err != nil {
		return nil, err
	}
	s := &Solver{cfg: cfg, fleetPconst: f.Pconst}
	cracOff, nodeOff := 0, 0
	for _, vi := range f.ZoneVariant {
		v := f.Variants[vi]
		zdc := *v.DC
		zc, zn := zdc.NCRAC(), zdc.NCN()
		z := &zoneState{
			dc:     &zdc,
			tm:     v.TM,
			solver: s.configure(assign.NewStage1Solver(&zdc, v.TM, arrs)),
			out:    make([]float64, zc),
		}
		for i := 0; i < zc; i++ {
			z.cracIdx = append(z.cracIdx, cracOff+i)
		}
		for j := 0; j < zn; j++ {
			z.nodeIdx = append(z.nodeIdx, nodeOff+j)
		}
		s.zones = append(s.zones, z)
		cracOff += zc
		nodeOff += zn
	}
	s.ncrac, s.nnode = cracOff, nodeOff
	s.wire()
	return s, nil
}

// configure wires a freshly built Stage-1 solver to the recorder, if any.
func (s *Solver) configure(sv *assign.Stage1Solver) *assign.Stage1Solver {
	if s.cfg.Recorder != nil {
		sv.SetRecorder(s.cfg.Recorder)
	}
	return sv
}

// wire numbers the zones and hands them the recorder's tracer (nil when
// tracing is off).
func (s *Solver) wire() {
	s.tr = s.cfg.Recorder.Tracer()
	for i, z := range s.zones {
		z.idx, z.tr = i, s.tr
	}
}

// NumZones returns the zone count.
func (s *Solver) NumZones() int { return len(s.zones) }

// LastStats returns the coordination statistics of the most recent Solve.
func (s *Solver) LastStats() Stats { return s.last }

// TakeLPStats drains and sums the simplex counters of every zone solver
// and the monolithic fallback (if any). The master is not an LP (see
// solveMaster) and contributes nothing.
func (s *Solver) TakeLPStats() linprog.Stats {
	var total linprog.Stats
	for _, z := range s.zones {
		total.Add(z.solver.TakeStats())
	}
	if s.fallback != nil {
		total.Add(s.fallback.TakeStats())
	}
	return total
}

// totalBudget is the shared cap: the parent's live Pconst on the partition
// path (so power-cap faults propagate without rebuilds, exactly like the
// monolithic solver's dc.Pconst read), or the fleet's fixed cap.
func (s *Solver) totalBudget() float64 {
	if s.parent != nil {
		return s.parent.Pconst
	}
	return s.fleetPconst
}

// Solve runs the zone-decomposed Stage-1 LP at the given global CRAC
// outlet temperatures (parent order on the partition path, zone-assembled
// order on the fleet path) and returns an assembled monolithic-shape
// Stage1Result the caller owns. See Solver for the algorithm; LastStats
// reports how the solve went.
func (s *Solver) Solve(ctx context.Context, cracOut []float64) (*assign.Stage1Result, error) {
	res, err := s.SolveScratch(ctx, cracOut)
	if err != nil {
		return nil, err
	}
	if res != &s.res {
		// The monolithic fallback allocated this result; it is already
		// caller-owned.
		return res, nil
	}
	return cloneResult(res), nil
}

// cloneResult deep-copies an assembled result so callers can retain it
// across later solves.
func cloneResult(r *assign.Stage1Result) *assign.Stage1Result {
	c := *r
	c.CracOut = append([]float64(nil), r.CracOut...)
	c.NodeCorePower = append([]float64(nil), r.NodeCorePower...)
	c.NodePower = append([]float64(nil), r.NodePower...)
	return &c
}

// SolveScratch is Solve without the defensive copy: the returned result
// aliases solver-owned buffers and is valid only until the next solve.
// With telemetry off, a re-solve at unchanged dimensions performs zero
// heap allocations — the fleet fast path's analog of
// assign.Stage1Solver.SolveScratch, gated in cmd/benchcheck.
func (s *Solver) SolveScratch(ctx context.Context, cracOut []float64) (*assign.Stage1Result, error) {
	if len(cracOut) != s.ncrac {
		return nil, fmt.Errorf("zones: got %d CRAC outlet temps, want %d", len(cracOut), s.ncrac)
	}
	P := s.totalBudget()
	st := Stats{Zones: len(s.zones)}

	for _, z := range s.zones {
		z.setOutlets(cracOut)
		z.best.valid = false
		// Only cuts and full-budget samples carry over: the solution a
		// Solve assembles comes from zone LPs solved in that Solve.
		z.last = nil
	}
	eps := budgetTolerance * math.Max(1, P)

	if s.fullSamplesSuffice(P, eps) {
		// Every zone's cached full-budget sample already answers round 0
		// at this cap: V_z(P) is the cached value, the shortcut cannot
		// fire and the base power fits.
		for _, z := range s.zones {
			z.vMax, z.basePow = z.full.value, z.full.basePow
		}
	} else {
		// Round 0: every zone at the full budget. Each zone's value there
		// is the best it could do under any split, so if the solutions
		// jointly fit, they are optimal.
		for _, z := range s.zones {
			z.budget = P
		}
		solves, err := s.evalRound(ctx)
		if err != nil {
			return s.recover(ctx, cracOut, &st, err)
		}
		st.ZoneSolves += solves
		sumBase, sumLin := 0.0, 0.0
		for _, z := range s.zones {
			sumBase += z.basePow
			sumLin += z.linPow
			z.full.valid = z.linPow < P-eps
			z.full.linPow, z.full.value, z.full.basePow = z.linPow, z.value, z.basePow
		}
		if sumBase > P+eps {
			return s.recover(ctx, cracOut, &st, solvererr.New("zones", solvererr.Infeasible,
				fmt.Errorf("zones: base power %.6g kW exceeds the shared cap %.6g kW", sumBase, P)))
		}
		if sumLin <= P+eps {
			st.Shortcut, st.Converged = true, true
			s.copyBest()
			s.last = st
			s.assembleInto(&s.res, cracOut, P, &st)
			return &s.res, nil
		}
		for _, z := range s.zones {
			z.vMax = z.value
			z.addCut(cut{Budget: P, Value: z.value, Price: z.price})
		}
	}

	// Price coordination: maximize Σ v_z over Σ b_z ≤ P against a growing
	// cutting-plane model of each zone's value function, starting from the
	// zone's retained cut pool.
	ub, lb := math.Inf(1), math.Inf(-1)
	for round := 1; round <= maxRounds; round++ {
		cRound := s.tr.Begin()
		st.Rounds = round
		mub, mdual := s.solveMaster(P)
		if mub < ub {
			ub = mub
		}
		solves, err := s.evalRound(ctx)
		if err != nil {
			s.tr.End(cRound, telemetry.SpanCoordRound, int32(round), 0, 1)
			return s.recover(ctx, cracOut, &st, err)
		}
		st.ZoneSolves += solves
		lbRound := 0.0
		for _, z := range s.zones {
			lbRound += z.value
		}
		if lbRound > lb {
			lb = lbRound
			s.copyBest()
			s.bestDual = mdual
		}
		for _, z := range s.zones {
			z.addCut(cut{Budget: z.budget, Value: z.value, Price: z.price})
		}
		st.UpperBound, st.LowerBound, st.Gap = ub, lb, ub-lb
		s.tr.End(cRound, telemetry.SpanCoordRound, int32(round), 0, 0)
		if ub-lb <= gapTol*math.Max(1, math.Abs(ub)) {
			st.Converged = true
			break
		}
	}
	if !st.Converged {
		return s.recover(ctx, cracOut, &st, solvererr.New("zones", solvererr.IterationLimit,
			fmt.Errorf("zones: price coordination did not converge in %d rounds (gap %.3g)", st.Rounds, st.Gap)))
	}
	s.last = st
	s.assembleInto(&s.res, cracOut, P, &st)
	return &s.res, nil
}

// evalRound evaluates every zone at its current budget, fanning out over
// the shared worker-count policy, and returns how many zone LPs it solved.
// Zone state is written only by the goroutine evaluating that zone, and
// results are independent of the worker count.
func (s *Solver) evalRound(ctx context.Context) (int, error) {
	nw := tempsearch.Workers(s.cfg.Parallelism)
	if nw > len(s.zones) {
		nw = len(s.zones)
	}
	if nw <= 1 {
		// Serial path: no goroutines, no pprof label sets — this is the
		// zero-allocation configuration the benchcheck gate measures.
		for _, z := range s.zones {
			z.eval(ctx)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < nw; w++ {
			wg.Add(1)
			go func(worker int) {
				defer wg.Done()
				// Label the worker goroutine so CPU profiles attribute
				// samples to the zone-solve stage and, per eval, to the
				// zone being solved.
				pprof.Do(ctx, pprof.Labels("stage", "zone-solve", "worker", strconv.Itoa(worker)), func(ctx context.Context) {
					for {
						i := int(next.Add(1)) - 1
						if i >= len(s.zones) {
							return
						}
						pprof.Do(ctx, pprof.Labels("zone", strconv.Itoa(i)), func(ctx context.Context) {
							s.zones[i].eval(ctx)
						})
					}
				})
			}(w)
		}
		wg.Wait()
	}
	solves := 0
	for i, z := range s.zones {
		if z.err != nil {
			return 0, fmt.Errorf("zones: zone %d at budget %.6g kW: %w", i, z.budget, z.err)
		}
		if z.solved {
			solves++
		}
	}
	return solves, nil
}

// eval solves the zone LP at z.budget and records the value-function
// sample. A budget bit-identical to the previous solve's needs no solve:
// the LP data would be identical, so the retained result is exactly what
// the solve would return. The scratch result stays valid (solver-owned)
// until the zone's next solve, which is after any copyBest decision for
// this round. With
// tracing on it records one SpanZoneSolve on the zone's own track: Label
// is the zone index, Pivots the solve's simplex work, and Err is 1 when
// the solve failed.
func (z *zoneState) eval(ctx context.Context) {
	z.solved = z.last == nil || math.Float64bits(z.budget) != math.Float64bits(z.solvedAt)
	if !z.solved {
		return
	}
	z.solvedAt = z.budget
	var c telemetry.SpanClock
	var pivots0 int64
	if z.tr != nil {
		pivots0 = z.solver.Workspace().Stats.Pivots
		c = z.tr.Begin()
	}
	z.dc.Pconst = z.budget
	res, err := z.solver.SolveScratch(ctx, z.out)
	if z.tr != nil {
		var code int32
		if err != nil {
			code = 1
		}
		z.tr.EndOnTrack(c, telemetry.SpanZoneSolve, int32(z.idx), int32(z.idx),
			z.solver.Workspace().Stats.Pivots-pivots0, code)
	}
	if err != nil {
		z.err, z.last = err, nil
		z.resetPool()
		return
	}
	z.err = nil
	z.last = res
	z.value, z.price = res.PredictedARR, res.PowerShadowPrice
	z.linPow, z.basePow = res.LinearPower, res.LinearBasePower
}

// fullSamplesSuffice reports whether every zone's cached full-budget
// sample settles round 0 at cap P: each is valid (its power row was
// slack, so V_z is flat from linPow up) with linPow ≤ P, the cached draws
// jointly exceed the cap (the shortcut cannot fire), and the base powers
// fit. Otherwise round 0 runs and decides the shortcut and infeasibility
// itself.
func (s *Solver) fullSamplesSuffice(P, eps float64) bool {
	sumBase, sumLin := 0.0, 0.0
	for _, z := range s.zones {
		if !z.full.valid || z.full.linPow > P {
			return false
		}
		sumBase += z.full.basePow
		sumLin += z.full.linPow
	}
	return sumLin > P+eps && sumBase <= P+eps
}

// addCut records a value-function sample unless its line is already in
// the pool: two samples on the same linear piece of V give the same cut,
// whatever their budgets. Dropping them keeps the retained pool bounded
// by V's piece count (the envelope walk is quadratic in it) and keeps
// near-parallel rows out of the master.
func (z *zoneState) addCut(c cut) {
	icpt := c.Value - c.Price*c.Budget
	for _, e := range z.cuts {
		if math.Abs(e.Price-c.Price) <= 1e-9*(1+math.Abs(c.Price)) &&
			math.Abs(e.Value-e.Price*e.Budget-icpt) <= 1e-9*(1+math.Abs(icpt)) {
			return
		}
	}
	z.cuts = append(z.cuts, c)
}

// copyBest deep-copies every zone's scratch solution into its retained
// best buffers (called when a round improves the lower bound).
func (s *Solver) copyBest() {
	for _, z := range s.zones {
		b := &z.best
		b.valid = true
		b.value, b.price, b.linPow = z.value, z.price, z.linPow
		b.corePow = append(b.corePow[:0], z.last.NodeCorePower...)
		b.pow = append(b.pow[:0], z.last.NodePower...)
		b.computePower = z.last.ComputePower
		b.cracPower = z.last.CRACPower
		b.totalPower = z.last.TotalPower
		b.feasible = z.last.Feasible
	}
}

// masterSeg is one marginal tranche of a zone's cutting-plane model: slope
// units of value per unit of budget over width kW, above the zone's base
// allocation. Tranches within a zone have strictly decreasing slopes
// (concavity), so pouring budget into tranches in global slope order is
// exact.
type masterSeg struct {
	zone         int
	width, slope float64
}

// segSorter is a retained sort.Interface over the master's tranche
// scratch: descending slope, stable. Solver keeps one so solveMaster
// sorts without boxing a slice or closure per round.
type segSorter struct{ segs []masterSeg }

func (p *segSorter) Len() int           { return len(p.segs) }
func (p *segSorter) Less(i, j int) bool { return p.segs[i].slope > p.segs[j].slope }
func (p *segSorter) Swap(i, j int)      { p.segs[i], p.segs[j] = p.segs[j], p.segs[i] }

// solveMaster maximizes the restricted master — Σ V̂_z(b_z) subject to
// Σ b_z ≤ P with b_z ∈ [base_z, P] — where V̂_z is the zone's cutting-plane
// model: the lower envelope of its cuts and of the monotonicity bound
// v ≤ V_z(P). The master is separable with concave piecewise-linear terms,
// so it is a continuous knapsack solved exactly by a greedy pour: every
// zone starts at its base power and the remaining budget fills the merged
// marginal tranches in slope order. An earlier version solved this as an
// LP; at fleet scale (hundreds of zones, thousands of accumulated cuts)
// the near-parallel cut rows made the simplex basis so ill-conditioned
// that the solver failed its own residual verification, while the greedy is exact by construction. Returns the
// model optimum (an upper bound on the monolithic LP objective) and the
// marginal tranche slope at the cap (the coordination price, a valid dual
// of the budget constraint), and writes the proposed budgets into the
// zones.
func (s *Solver) solveMaster(P float64) (ub, dual float64) {
	s.segs = s.segs[:0]
	budget := P
	for zi, z := range s.zones {
		lo := math.Min(z.basePow, P)
		z.alloc = 0
		budget -= lo
		ub += z.envelope(zi, lo, P, &s.segs)
	}
	// Near-degenerate caps can leave Σ base marginally above P (within the
	// shortcut tolerance); there is then nothing left to pour.
	if budget < 0 {
		budget = 0
	}
	// Stable sort: tranches within a zone keep their concavity order, ties
	// across zones resolve by zone index, so the proposal is deterministic.
	// The retained sorter (vs sort.SliceStable) keeps the coordination
	// rounds allocation-free: boxing a fresh slice+closure pair per round
	// was the warm fleet re-solve's last heap traffic.
	s.sorter.segs = s.segs
	sort.Stable(&s.sorter)
	for _, sg := range s.segs {
		if budget <= 0 {
			break
		}
		take := math.Min(sg.width, budget)
		s.zones[sg.zone].alloc += take
		ub += take * sg.slope
		budget -= take
		if budget <= 0 {
			dual = sg.slope
		}
	}
	for _, z := range s.zones {
		z.budget = math.Min(z.basePow, P) + z.alloc
	}
	return ub, dual
}

// envelope walks the lower envelope of the zone's cut lines over budgets
// [lo, hi], returns its value at lo, and appends the envelope's positive-
// slope tranches to segs. Lines are L_i(b) = c_i + λ_i·b with c_i =
// Value_i − Price_i·Budget_i, plus the flat line at vMax (the zone LP's
// value is nondecreasing in its budget, so V(b) ≤ V(P) everywhere); the
// flat line bounds every envelope slope into [0, max λ]. The walk is
// O(cuts²) with cuts capped by V's piece count (addCut keeps one cut per
// line) — trivial next to one zone LP pivot.
func (z *zoneState) envelope(zi int, lo, hi float64, segs *[]masterSeg) float64 {
	lineAt := func(c cut, b float64) float64 {
		return c.Value + c.Price*(b-c.Budget)
	}
	flat := cut{Budget: hi, Value: z.vMax, Price: 0}
	// Active line at lo: minimum value, ties broken toward the smaller
	// slope (the shallower line stays lowest to the right of the tie).
	act := flat
	actV := lineAt(flat, lo)
	for _, c := range z.cuts {
		v := lineAt(c, lo)
		if v < actV-1e-12*(1+math.Abs(actV)) || (v <= actV+1e-12*(1+math.Abs(actV)) && c.Price < act.Price) {
			act, actV = c, v
		}
	}
	v0 := actV
	b := lo
	for b < hi && act.Price > 0 {
		// The next breakpoint: the nearest crossing with a shallower line.
		nb, next := hi, flat
		for _, c := range z.cuts {
			if c.Price >= act.Price {
				continue
			}
			// act and c cross where act's surplus over c vanishes.
			x := b + (lineAt(c, b)-lineAt(act, b))/(act.Price-c.Price)
			if x < b {
				x = b
			}
			if x < nb || (x == nb && c.Price < next.Price) {
				nb, next = x, c
			}
		}
		if lineAt(flat, b) < lineAt(act, b) {
			// Numerical guard: the flat line is already below; stop.
			break
		}
		if x := b + (z.vMax-lineAt(act, b))/act.Price; x < nb {
			nb, next = x, flat
		}
		if nb > b {
			*segs = append(*segs, masterSeg{zone: zi, width: nb - b, slope: act.Price})
		}
		b, act = nb, next
	}
	return v0
}

// recover routes a failed decomposed solve to the monolithic fallback when
// one exists (partition path) so behavior matches the monolithic solver
// exactly; without one the error propagates.
func (s *Solver) recover(ctx context.Context, cracOut []float64, st *Stats, cause error) (*assign.Stage1Result, error) {
	if s.fallback == nil {
		s.last = *st
		return nil, cause
	}
	st.Fallback = true
	s.last = *st
	return s.fallback.Solve(ctx, cracOut)
}

// assembleInto scatters the retained per-zone solutions into one
// monolithic-shape Stage1Result, reusing res's buffers. With a single
// zone every field is bit-identical to the monolithic solver's: the zone
// LP is the monolithic LP and each ledger entry is the zone's own. With
// several zones the ledgers sum per-zone terms (zone order), the
// predicted ARR is Σ V_z, and the power shadow price is the master's
// budget-row dual — a coordination price consistent with every zone's
// local dual at the final split.
func (s *Solver) assembleInto(res *assign.Stage1Result, cracOut []float64, P float64, st *Stats) {
	*res = assign.Stage1Result{
		CracOut:       append(res.CracOut[:0], cracOut...),
		NodeCorePower: resize(res.NodeCorePower, s.nnode),
		NodePower:     resize(res.NodePower, s.nnode),
		Feasible:      true,
	}
	totOK := 0.0
	for _, z := range s.zones {
		b := &z.best
		for lj, gj := range z.nodeIdx {
			res.NodeCorePower[gj] = b.corePow[lj]
			res.NodePower[gj] = b.pow[lj]
		}
		res.PredictedARR += b.value
		res.LinearBasePower += z.basePow
		res.LinearPower += b.linPow
		res.ComputePower += b.computePower
		res.CRACPower += b.cracPower
		totOK += b.totalPower
		res.Feasible = res.Feasible && b.feasible
	}
	res.TotalPower = res.ComputePower + res.CRACPower
	res.Feasible = res.Feasible && totOK <= P+powerBudgetSlack
	if len(s.zones) == 1 {
		res.PowerShadowPrice = s.zones[0].best.price
	} else if !st.Shortcut {
		res.PowerShadowPrice = s.bestDual
	}
}

// resize returns buf with length n (reusing its array when it fits).
// NodeCorePower/NodePower are fully overwritten by the scatter loop, so
// stale contents never leak.
func resize(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}
