// Package solvererr defines the structured error taxonomy of the solve
// pipeline. Every failure on the path controller → assign → tempsearch →
// linprog is classified into one of a small set of kinds, so callers (the
// epoch controller's degradation ladder, the CLI, tests) can branch on
// *what went wrong* without string matching: an infeasible plant calls for
// a safe fallback plan, an iteration limit or numerical breakdown calls
// for a cold rebuild, and a timeout means the deadline — not the model —
// stopped the solve.
package solvererr

import (
	"context"
	"errors"
	"fmt"

	"thermaldc/internal/linprog"
	"thermaldc/internal/persist"
	"thermaldc/internal/tempsearch"
)

// Kind classifies a solve failure.
type Kind int

const (
	// Unknown is the zero value: the failure did not match any taxonomy
	// class (configuration errors, I/O, programming mistakes surfaced as
	// plain errors).
	Unknown Kind = iota
	// Infeasible: no point satisfies the constraints (or no lattice point
	// of the temperature search was feasible).
	Infeasible
	// Unbounded: the LP objective is unbounded over the feasible set.
	Unbounded
	// IterationLimit: the simplex exhausted its pivot budget without
	// showing signs of cycling.
	IterationLimit
	// Cycling: the simplex stalled on degenerate pivots and did not
	// terminate even under Bland's anti-cycling rule.
	Cycling
	// Numerical: malformed inputs (NaN/Inf) or a returned solution that
	// failed primal residual / bound verification even after rescaling.
	Numerical
	// Timeout: the solve was cut short by its context (deadline exceeded
	// or canceled).
	Timeout
	// Panic: an internal invariant panic was recovered at the controller
	// boundary and converted into an error.
	Panic
	// Persist: the checkpoint/restore layer failed — a corrupt journal,
	// one from a different run configuration, or plain I/O. Recovery must stop loudly: resuming past a persistence defect
	// risks silently diverging from the uninterrupted run.
	Persist
)

func (k Kind) String() string {
	switch k {
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	case IterationLimit:
		return "iteration-limit"
	case Cycling:
		return "cycling"
	case Numerical:
		return "numerical"
	case Timeout:
		return "timeout"
	case Panic:
		return "panic"
	case Persist:
		return "persist"
	default:
		return "unknown"
	}
}

// SolveError is a classified failure of one pipeline stage.
type SolveError struct {
	// Stage names the pipeline layer that failed: "search", "stage1",
	// "stage2", "stage3", "baseline", or "controller".
	Stage string
	// Kind is the taxonomy class.
	Kind Kind
	// Cause is the underlying error (never nil).
	Cause error
}

func (e *SolveError) Error() string {
	return fmt.Sprintf("%s solve failed (%s): %v", e.Stage, e.Kind, e.Cause)
}

// Unwrap exposes the cause, so errors.Is still sees context.Canceled,
// linprog.ErrNotOptimal, tempsearch.ErrNoFeasible, etc. through the wrapper.
func (e *SolveError) Unwrap() error { return e.Cause }

// New builds a SolveError with an explicit kind (used for panics and other
// failures that carry no classifiable cause chain).
func New(stage string, kind Kind, cause error) *SolveError {
	return &SolveError{Stage: stage, Kind: kind, Cause: cause}
}

// Wrap classifies err and tags it with the stage. A nil err stays nil, and
// an error already carrying a SolveError is returned unchanged — the
// innermost stage is the most precise.
func Wrap(stage string, err error) error {
	if err == nil {
		return nil
	}
	var se *SolveError
	if errors.As(err, &se) {
		return err
	}
	return &SolveError{Stage: stage, Kind: Classify(err), Cause: err}
}

// Classify maps an arbitrary error from the solve path onto the taxonomy.
func Classify(err error) Kind {
	if err == nil {
		return Unknown
	}
	var se *SolveError
	if errors.As(err, &se) {
		return se.Kind
	}
	var pe *persist.Error
	if errors.As(err, &pe) {
		return Persist
	}
	switch {
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		return Timeout
	case errors.Is(err, linprog.ErrMalformed), errors.Is(err, linprog.ErrNumerical):
		return Numerical
	case errors.Is(err, linprog.ErrCycling):
		return Cycling
	case errors.Is(err, tempsearch.ErrNoFeasible):
		return Infeasible
	}
	var st *linprog.StatusError
	if errors.As(err, &st) {
		switch st.Status {
		case linprog.Infeasible:
			return Infeasible
		case linprog.Unbounded:
			return Unbounded
		case linprog.IterLimit:
			return IterationLimit
		case linprog.Canceled:
			return Timeout
		case linprog.Malformed:
			return Numerical
		}
	}
	return Unknown
}
