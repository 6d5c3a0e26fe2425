package tempsearch

import (
	"context"
	"fmt"
	"math"
	"testing"
)

// plateau is a tie-heavy objective: many lattice points share each value.
func plateau(out []float64) float64 {
	d := 0.0
	for i, x := range out {
		p := 12.5 + 3*float64(i)
		d += (x - p) * (x - p)
	}
	return -math.Round(d / 8)
}

// boundedEval evaluates plateau with a synthetic screen: a candidate's
// "duals" are its own coordinates, and the bound is exact within 3 °C
// (L1) of y and plateau(x) + |x − y|₁/4 beyond. Candidates on the
// incumbent's plateau near it bound at exactly the incumbent value, so a
// screen that skipped ties would change Out.
type boundedEval struct{ last, y []float64 }

func (e *boundedEval) Eval(out []float64) (float64, bool) {
	e.last = append(e.last[:0], out...)
	return plateau(out), true
}

func (e *boundedEval) AppendDuals(dst []float64) []float64 { return append(dst, e.last...) }

func (e *boundedEval) SetBoundDuals(y []float64) { e.y = append(e.y[:0], y...) }

func (e *boundedEval) Bound(out []float64) float64 {
	slack := 0.0
	for i, x := range out {
		slack += math.Abs(x - e.y[i])
	}
	if slack <= 3 {
		return plateau(out)
	}
	return plateau(out) + slack/4
}

// TestScreeningInvisibleAndDeterministic runs the grid and coarse-to-fine
// searches with and without the synthetic screen: Out, Value and Evals must
// match, the screen must skip candidates, and the skipped set must not
// depend on the worker count.
func TestScreeningInvisibleAndDeterministic(t *testing.T) {
	searches := map[string]func(Config, Factory) (Result, error){
		"grid":           func(c Config, f Factory) (Result, error) { return Grid(context.Background(), 2, c, 1, f) },
		"coarse-to-fine": func(c Config, f Factory) (Result, error) { return CoarseToFine(context.Background(), 2, c, f) },
	}
	for name, search := range searches {
		cfg := Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1, Parallelism: 1}
		ref, err := search(cfg, Shared(func(out []float64) (float64, bool) { return plateau(out), true }))
		if err != nil {
			t.Fatal(err)
		}
		solved := -1
		for _, par := range []int{1, 2, 4} {
			cfg.Parallelism = par
			got, err := search(cfg, func() Evaluator { return &boundedEval{} })
			if err != nil {
				t.Fatal(err)
			}
			tag := fmt.Sprintf("%s par %d", name, par)
			if fmt.Sprint(got.Out) != fmt.Sprint(ref.Out) || got.Value != ref.Value || got.Evals != ref.Evals {
				t.Fatalf("%s: (%v, %v, %d evals), unscreened (%v, %v, %d)",
					tag, got.Out, got.Value, got.Evals, ref.Out, ref.Value, ref.Evals)
			}
			if got.Solved >= got.Evals {
				t.Fatalf("%s: solved %d of %d visited, screened none", tag, got.Solved, got.Evals)
			}
			if solved >= 0 && got.Solved != solved {
				t.Fatalf("%s: solved %d, %d at one worker", tag, got.Solved, solved)
			}
			solved = got.Solved
		}
	}
}
