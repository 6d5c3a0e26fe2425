package solvererr

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"thermaldc/internal/linprog"
	"thermaldc/internal/tempsearch"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Unknown: "unknown", Infeasible: "infeasible", Unbounded: "unbounded",
		IterationLimit: "iteration-limit", Cycling: "cycling",
		Numerical: "numerical", Timeout: "timeout", Panic: "panic",
		Persist: "persist",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("out-of-range kind = %q, want unknown", Kind(99).String())
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		err  error
		want Kind
	}{
		{nil, Unknown},
		{errors.New("plain"), Unknown},
		{context.Canceled, Timeout},
		{context.DeadlineExceeded, Timeout},
		{fmt.Errorf("wrapped: %w", context.Canceled), Timeout},
		{linprog.ErrMalformed, Numerical},
		{linprog.ErrNumerical, Numerical},
		{linprog.ErrCycling, Cycling},
		{tempsearch.ErrNoFeasible, Infeasible},
		{&linprog.StatusError{Status: linprog.Infeasible}, Infeasible},
		{&linprog.StatusError{Status: linprog.Unbounded}, Unbounded},
		{&linprog.StatusError{Status: linprog.IterLimit}, IterationLimit},
		{&linprog.StatusError{Status: linprog.Canceled}, Timeout},
		{&linprog.StatusError{Status: linprog.Malformed}, Numerical},
		{New("stage1", Panic, errors.New("boom")), Panic},
	}
	for _, c := range cases {
		if got := Classify(c.err); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.err, got, c.want)
		}
		if got := KindOf(c.err); got != c.want {
			t.Errorf("KindOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

func TestWrapTagsStageAndKind(t *testing.T) {
	err := Wrap("stage1", &linprog.StatusError{Status: linprog.Infeasible})
	var se *SolveError
	if !errors.As(err, &se) {
		t.Fatalf("Wrap did not produce a SolveError: %v", err)
	}
	if se.Stage != "stage1" || se.Kind != Infeasible {
		t.Fatalf("got stage=%q kind=%v", se.Stage, se.Kind)
	}
}

func TestWrapNilStaysNil(t *testing.T) {
	if Wrap("stage1", nil) != nil {
		t.Fatal("Wrap(nil) != nil")
	}
}

// TestWrapInnermostStageWins: the layer closest to the failure names it;
// outer layers must not re-tag.
func TestWrapInnermostStageWins(t *testing.T) {
	inner := Wrap("stage2", errors.New("bad targets"))
	outer := Wrap("controller", fmt.Errorf("epoch 3: %w", inner))
	var se *SolveError
	if !errors.As(outer, &se) {
		t.Fatalf("no SolveError in %v", outer)
	}
	if se.Stage != "stage2" {
		t.Fatalf("stage = %q, want the innermost (stage2)", se.Stage)
	}
}

// TestUnwrapPreservesSentinels: classification must not hide the cause
// chain from errors.Is.
func TestUnwrapPreservesSentinels(t *testing.T) {
	err := Wrap("search", fmt.Errorf("search: %w", context.Canceled))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(%v, context.Canceled) = false", err)
	}
}

func TestSolveErrorMessage(t *testing.T) {
	e := New("stage3", Unbounded, errors.New("ray found"))
	want := "stage3 solve failed (unbounded): ray found"
	if e.Error() != want {
		t.Fatalf("Error() = %q, want %q", e.Error(), want)
	}
}
