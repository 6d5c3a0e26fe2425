// Package linprog implements a dense two-phase primal simplex solver for
// linear programs with bounded variables. It is the optimization substrate
// for every LP the paper solves: the Stage-1 relaxed power assignment, the
// Stage-3 desired-execution-rate assignment (Equation 7 with fixed
// P-states), the Equation-21 baseline, the Equation-17 power bounds, and
// the Appendix-B cross-interference feasibility problem.
//
// The solver handles
//   - minimization and maximization,
//   - ≤ / ≥ / = and two-sided range rows,
//   - per-variable lower/upper bounds (including infinite bounds),
//
// using the textbook bounded-variable simplex with a dense tableau, Dantzig
// pricing, and a Bland anti-cycling fallback. Problem sizes in this
// repository are a few hundred rows by a few thousand columns, well within
// dense-tableau territory.
package linprog

import (
	"errors"
	"fmt"
	"math"
)

// Sense selects the optimization direction.
type Sense int

const (
	// Minimize the objective.
	Minimize Sense = iota
	// Maximize the objective.
	Maximize
)

// Op is a row comparison operator.
type Op int

const (
	// LE constrains a·x ≤ rhs.
	LE Op = iota
	// GE constrains a·x ≥ rhs.
	GE
	// EQ constrains a·x = rhs.
	EQ
)

// Inf is a convenience alias for +∞ bounds.
var Inf = math.Inf(1)

// Term is a single coefficient Coef on variable Var within a row.
type Term struct {
	Var  int
	Coef float64
}

// Status describes the outcome of Solve.
type Status int

const (
	// Optimal means an optimal solution was found.
	Optimal Status = iota
	// Infeasible means no point satisfies the constraints.
	Infeasible
	// Unbounded means the objective is unbounded over the feasible set.
	Unbounded
	// IterLimit means the iteration limit was exhausted.
	IterLimit
	// Canceled means the context passed to SolveContext was done before
	// the solve finished.
	Canceled
	// Malformed means the problem itself is invalid (NaN/Inf cost, bound,
	// coefficient, or right-hand side, or inverted bounds) — detected at
	// insertion time and reported by Solve.
	Malformed
)

func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterLimit:
		return "iteration limit"
	case Canceled:
		return "canceled"
	case Malformed:
		return "malformed"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// ErrNotOptimal is matched (via errors.Is) by every Solve error whose
// status is not Optimal.
var ErrNotOptimal = errors.New("linprog: no optimal solution")

// ErrMalformed is wrapped by Solve errors for problems holding non-finite
// costs, bounds, coefficients, or right-hand sides (or inverted bound
// pairs). The defect is recorded at insertion (AddVar/AddRow/SetRHS/...)
// and surfaced by the next Solve, so construction code needs no error
// plumbing.
var ErrMalformed = errors.New("linprog: malformed problem")

// ErrCycling is wrapped by Solve errors when the simplex stalled on
// degenerate pivots and failed to terminate even after a restart under
// Bland's anti-cycling rule.
var ErrCycling = errors.New("linprog: simplex cycling")

// ErrNumerical is wrapped by Solve errors when a returned basis failed the
// primal residual / bound verification and a rescaled, perturbed retry
// failed it too.
var ErrNumerical = errors.New("linprog: numerically unreliable solution")

// StatusError is the typed error returned by Solve for every non-Optimal
// outcome. It matches ErrNotOptimal via errors.Is, carries the Status for
// programmatic branching, and unwraps to the underlying cause (the context
// error for Canceled, the insertion defect for Malformed, ErrCycling for a
// failed anti-cycling restart).
type StatusError struct {
	Status Status
	cause  error
}

func (e *StatusError) Error() string {
	if e.cause != nil {
		return fmt.Sprintf("%v: %s: %v", ErrNotOptimal, e.Status, e.cause)
	}
	return fmt.Sprintf("%v: %s", ErrNotOptimal, e.Status)
}

// Is matches ErrNotOptimal so existing errors.Is call sites keep working.
func (e *StatusError) Is(target error) bool { return target == ErrNotOptimal }

// Unwrap exposes the cause (may be nil).
func (e *StatusError) Unwrap() error { return e.cause }

type row struct {
	terms []Term
	op    Op
	rhs   float64
	// rangeLo is used only when isRange: rangeLo ≤ a·x ≤ rhs.
	rangeLo float64
	isRange bool
}

// Problem is an LP under construction. Create one with NewProblem, add
// variables and rows, then call Solve. A Problem may be solved repeatedly;
// each Solve works on a fresh tableau.
type Problem struct {
	sense Sense
	cost  []float64
	lo    []float64
	hi    []float64
	names []string
	rows  []row

	// defect records the first malformation detected at insertion time;
	// Solve reports it instead of running the simplex on garbage.
	defect error

	// retryRowScale holds, on a clone built by rescaledCopy, the exact
	// power-of-two factor each row was multiplied by (to unscale duals).
	retryRowScale []float64

	// MaxIter optionally overrides the iteration budget (0 = automatic).
	MaxIter int
}

// Method was the simplex-core selector of an earlier API. There is one core
// now, the flat tableau, so no field takes a Method any more.
//
// Deprecated: Method is ignored; it remains only for callers that still
// name MethodRevised.
type Method int

// MethodRevised named a revised LU-factorized core that has been removed.
//
// Deprecated: MethodRevised is ignored; every solve uses the flat tableau.
const MethodRevised Method = 1

// noteDefect records the first insertion-time malformation.
func (p *Problem) noteDefect(format string, args ...any) {
	if p.defect == nil {
		p.defect = fmt.Errorf(format, args...)
	}
}

// Defect returns the first malformation recorded at insertion time, or nil
// for a well-formed problem.
func (p *Problem) Defect() error { return p.defect }

// NewProblem returns an empty problem with the given optimization sense.
func NewProblem(sense Sense) *Problem {
	return &Problem{sense: sense}
}

// NumVars returns the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.cost) }

// NumRows returns the number of rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddVar adds a variable with bounds [lo, hi] and the given objective
// coefficient, returning its index. lo may be -Inf and hi may be +Inf.
// A NaN cost or bound, a +Inf lo, a -Inf hi, or lo > hi marks the problem
// malformed; the defect is reported by the next Solve instead of panicking
// here. The name is used only in error messages.
func (p *Problem) AddVar(name string, lo, hi, cost float64) int {
	if lo > hi {
		p.noteDefect("variable %q has lo %g > hi %g", name, lo, hi)
	}
	if math.IsNaN(lo) || math.IsInf(lo, 1) || math.IsNaN(hi) || math.IsInf(hi, -1) {
		p.noteDefect("variable %q has invalid bounds [%g, %g]", name, lo, hi)
	}
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		p.noteDefect("variable %q has non-finite cost %g", name, cost)
	}
	p.cost = append(p.cost, cost)
	p.lo = append(p.lo, lo)
	p.hi = append(p.hi, hi)
	p.names = append(p.names, name)
	return len(p.cost) - 1
}

// VarBounds returns the bounds of variable v.
func (p *Problem) VarBounds(v int) (lo, hi float64) { return p.lo[v], p.hi[v] }

// SetCost overwrites the objective coefficient of variable v. This allows
// reusing one constraint matrix for several objectives (e.g. the random
// objectives used to diversify Appendix-B solutions).
func (p *Problem) SetCost(v int, cost float64) {
	if math.IsNaN(cost) || math.IsInf(cost, 0) {
		p.noteDefect("variable %d given non-finite cost %g", v, cost)
	}
	p.cost[v] = cost
}

// AddRow adds the constraint Σ terms ⋈ rhs.
func (p *Problem) AddRow(op Op, rhs float64, terms ...Term) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		p.noteDefect("row %d has non-finite rhs %g", len(p.rows), rhs)
	}
	p.checkTerms(terms)
	p.rows = append(p.rows, row{terms: cloneTerms(terms), op: op, rhs: rhs})
}

// SetRHS replaces the right-hand side of row r, keeping its operator and
// terms. Together with RowTerms it lets a caller reuse one LP skeleton
// across many solves that only perturb coefficients and right-hand sides.
func (p *Problem) SetRHS(r int, rhs float64) {
	if math.IsNaN(rhs) || math.IsInf(rhs, 0) {
		p.noteDefect("row %d given non-finite rhs %g", r, rhs)
	}
	p.rows[r].rhs = rhs
}

// RHS returns the right-hand side of row r (the upper side of a range row).
func (p *Problem) RHS(r int) float64 { return p.rows[r].rhs }

// RowTerms returns the internal term slice of row r so callers can patch
// Coef values in place between solves. The sparsity pattern is fixed:
// callers must not modify Var fields, reorder, or grow the slice.
func (p *Problem) RowTerms(r int) []Term {
	return p.rows[r].terms
}

// AddRangeRow adds the two-sided constraint lo ≤ Σ terms ≤ hi.
func (p *Problem) AddRangeRow(lo, hi float64, terms ...Term) {
	if lo > hi || math.IsNaN(lo) || math.IsNaN(hi) || math.IsInf(lo, 0) || math.IsInf(hi, 0) {
		p.noteDefect("range row %d has invalid range [%g, %g]", len(p.rows), lo, hi)
	}
	p.checkTerms(terms)
	p.rows = append(p.rows, row{terms: cloneTerms(terms), rhs: hi, rangeLo: lo, isRange: true})
}

func (p *Problem) checkTerms(terms []Term) {
	for _, t := range terms {
		if t.Var < 0 || t.Var >= len(p.cost) {
			panic(fmt.Sprintf("linprog: term references unknown variable %d", t.Var))
		}
		if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
			p.noteDefect("row %d has non-finite coefficient %g on variable %d", len(p.rows), t.Coef, t.Var)
		}
	}
}

// validate rescans the complete current problem data. It backs Solve's
// malformed-problem check: insertion-time defects (noteDefect) are hints,
// but SetRHS/SetCost legitimately overwrite values between solves, so a
// recorded defect is only fatal if the problem is *still* malformed.
func (p *Problem) validate() error {
	for j := range p.cost {
		if math.IsNaN(p.cost[j]) || math.IsInf(p.cost[j], 0) {
			return fmt.Errorf("variable %d (%q) has non-finite cost %g", j, p.names[j], p.cost[j])
		}
		lo, hi := p.lo[j], p.hi[j]
		if math.IsNaN(lo) || math.IsInf(lo, 1) || math.IsNaN(hi) || math.IsInf(hi, -1) || lo > hi {
			return fmt.Errorf("variable %d (%q) has invalid bounds [%g, %g]", j, p.names[j], lo, hi)
		}
	}
	for r := range p.rows {
		rw := &p.rows[r]
		if math.IsNaN(rw.rhs) || math.IsInf(rw.rhs, 0) {
			return fmt.Errorf("row %d has non-finite rhs %g", r, rw.rhs)
		}
		if rw.isRange && (math.IsNaN(rw.rangeLo) || math.IsInf(rw.rangeLo, 0) || rw.rangeLo > rw.rhs) {
			return fmt.Errorf("row %d has invalid range [%g, %g]", r, rw.rangeLo, rw.rhs)
		}
		for _, t := range rw.terms {
			if math.IsNaN(t.Coef) || math.IsInf(t.Coef, 0) {
				return fmt.Errorf("row %d has non-finite coefficient %g on variable %d", r, t.Coef, t.Var)
			}
		}
	}
	return nil
}

func cloneTerms(ts []Term) []Term {
	out := make([]Term, len(ts))
	copy(out, ts)
	return out
}

// Solution is the result of a successful Solve.
type Solution struct {
	Status    Status
	Objective float64
	x         []float64
	duals     []float64
	// Iterations counts simplex pivots across both phases.
	Iterations int
	// Restarted marks solutions recovered by the anti-cycling restart
	// (the first pass exhausted its budget; Bland's rule finished).
	Restarted bool
	// Rescaled marks solutions recovered by the row-equilibrated,
	// RHS-relaxed retry after the first basis failed verification.
	Rescaled bool
}

// Dual returns the shadow price of row r: the rate of change of the
// optimal objective per unit increase of the row's right-hand side
// (rhs for ≤/=/≥ rows, the upper bound for range rows), valid for small
// perturbations that keep the optimal basis. For a maximization, a binding
// ≤ row has a non-negative dual.
func (s *Solution) Dual(r int) float64 { return s.duals[r] }

// AppendDuals appends every row's shadow price (see Dual), in row order,
// to dst and returns the extended slice.
func (s *Solution) AppendDuals(dst []float64) []float64 { return append(dst, s.duals...) }

// Value returns the optimal value of variable v.
func (s *Solution) Value(v int) float64 { return s.x[v] }

// Values returns a copy of the full primal solution vector (structural
// variables only, in AddVar order).
func (s *Solution) Values() []float64 {
	return append([]float64(nil), s.x...)
}
