package tempsearch

import (
	"errors"
	"math"
	"runtime"
	"sync"
	"testing"
)

// quadratic returns an objective with a unique maximum at the given peak.
func quadratic(peak []float64) Objective {
	return func(out []float64) (float64, bool) {
		v := 0.0
		for i := range out {
			d := out[i] - peak[i]
			v -= d * d
		}
		return v, true
	}
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := []Config{
		{Lo: 10, Hi: 5, CoarseStep: 1, FineStep: 1},
		{Lo: 0, Hi: 5, CoarseStep: 0, FineStep: 1},
		{Lo: 0, Hi: 5, CoarseStep: 1, FineStep: 2},
		{Lo: 0, Hi: 5, CoarseStep: 1, FineStep: 1, Parallelism: -1},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted", i)
		}
	}
}

func TestGridFindsLatticeOptimum(t *testing.T) {
	cfg := Config{Lo: 0, Hi: 10, CoarseStep: 1, FineStep: 1}
	res, err := Grid(2, cfg, 1, Shared(quadratic([]float64{3, 7})))
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0] != 3 || res.Out[1] != 7 {
		t.Errorf("Grid found %v, want [3 7]", res.Out)
	}
	if res.Value != 0 {
		t.Errorf("value = %g, want 0", res.Value)
	}
	if res.Evals != 121 {
		t.Errorf("evals = %d, want 121", res.Evals)
	}
}

func TestGridInfeasible(t *testing.T) {
	cfg := Config{Lo: 0, Hi: 2, CoarseStep: 1, FineStep: 1}
	_, err := Grid(1, cfg, 1, Shared(func([]float64) (float64, bool) { return 0, false }))
	if err == nil {
		t.Fatal("expected error when nothing is feasible")
	}
	if !errors.Is(err, ErrNoFeasible) {
		t.Errorf("error %v does not wrap ErrNoFeasible", err)
	}
}

func TestCoarseToFineInfeasibleSentinel(t *testing.T) {
	cfg := Config{Lo: 0, Hi: 2, CoarseStep: 1, FineStep: 1}
	res, err := CoarseToFine(1, cfg, Shared(func([]float64) (float64, bool) { return 0, false }))
	if !errors.Is(err, ErrNoFeasible) {
		t.Fatalf("err = %v, want ErrNoFeasible", err)
	}
	if res.Evals != 3 {
		t.Errorf("Evals = %d, want 3 (all lattice points tried before giving up)", res.Evals)
	}
	// Config errors must NOT look like infeasibility.
	_, err = CoarseToFine(1, Config{Lo: 5, Hi: 0, CoarseStep: 1, FineStep: 1}, Shared(quadratic([]float64{1})))
	if err == nil || errors.Is(err, ErrNoFeasible) {
		t.Errorf("config error %v must not wrap ErrNoFeasible", err)
	}
}

func TestCoarseToFineMatchesGridOnSmooth(t *testing.T) {
	cfg := Config{Lo: 0, Hi: 20, CoarseStep: 4, FineStep: 1}
	peak := []float64{13, 6}
	ctf, err := CoarseToFine(2, cfg, Shared(quadratic(peak)))
	if err != nil {
		t.Fatal(err)
	}
	grid, err := Grid(2, cfg, 1, Shared(quadratic(peak)))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ctf.Value-grid.Value) > 1e-9 {
		t.Errorf("coarse-to-fine %v (%g) vs grid %v (%g)", ctf.Out, ctf.Value, grid.Out, grid.Value)
	}
	if ctf.Evals >= grid.Evals {
		t.Errorf("coarse-to-fine used %d evals, grid %d — refinement should be cheaper", ctf.Evals, grid.Evals)
	}
}

func TestCoarseToFineRespectsBounds(t *testing.T) {
	cfg := Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1}
	// Peak outside the window: search must clamp to the boundary.
	res, err := CoarseToFine(3, cfg, Shared(quadratic([]float64{-10, 30, 15})))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{5, 25, 15}
	for i := range want {
		if math.Abs(res.Out[i]-want[i]) > 1e-9 {
			t.Errorf("Out[%d] = %g, want %g", i, res.Out[i], want[i])
		}
	}
}

func TestMemoizationSkipsRevisits(t *testing.T) {
	// Count raw objective invocations: the memo must make CoarseToFine's
	// reported Evals equal the number of distinct lattice points actually
	// evaluated, with refinement rounds never re-solving visited points.
	var mu sync.Mutex
	calls := 0
	counted := Shared(func(out []float64) (float64, bool) {
		mu.Lock()
		calls++
		mu.Unlock()
		v, ok := quadratic([]float64{13, 6})(out)
		return v, ok
	})
	cfg := Config{Lo: 0, Hi: 20, CoarseStep: 4, FineStep: 1}
	res, err := CoarseToFine(2, cfg, counted)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Evals {
		t.Errorf("objective called %d times but Evals = %d — accounting must be exact", calls, res.Evals)
	}
	// The incumbent sits in every refinement window, so at least one point
	// per round is a guaranteed memo hit: total evals must be strictly less
	// than the sum of window sizes.
	serialUpper := 6*6 + 3*(3*3) // coarse 6×6 lattice + 3 halving rounds of 3×3
	if res.Evals >= serialUpper {
		t.Errorf("Evals = %d, want < %d (memoization must skip revisited points)", res.Evals, serialUpper)
	}
}

func TestParallelismDeterminism(t *testing.T) {
	// A flat plateau forces objective ties: every Parallelism setting must
	// resolve them identically (lexicographically smallest vector).
	plateau := func(out []float64) (float64, bool) {
		s := out[0] + out[1] + out[2]
		if s > 30 {
			return 0, false
		}
		return math.Min(s, 24), true // ties for every point with sum in [24, 30]
	}
	var ref Result
	for i, par := range []int{1, 2, 4, runtime.GOMAXPROCS(0), 0} {
		cfg := Config{Lo: 0, Hi: 20, CoarseStep: 4, FineStep: 1, Parallelism: par}
		res, err := CoarseToFine(3, cfg, Shared(plateau))
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.Value != ref.Value || res.Evals != ref.Evals {
			t.Errorf("Parallelism=%d: (value %g, evals %d) != reference (%g, %d)",
				par, res.Value, res.Evals, ref.Value, ref.Evals)
		}
		for j := range ref.Out {
			if res.Out[j] != ref.Out[j] {
				t.Errorf("Parallelism=%d: Out = %v, want %v", par, res.Out, ref.Out)
				break
			}
		}
	}
}

func TestFactoryOnePerWorker(t *testing.T) {
	// Each worker must get its own Objective from the Factory; no Objective
	// may be shared between concurrently running workers.
	var mu sync.Mutex
	made := 0
	factory := func() Evaluator {
		mu.Lock()
		made++
		mu.Unlock()
		inUse := false
		return Objective(func(out []float64) (float64, bool) {
			mu.Lock()
			if inUse {
				mu.Unlock()
				t.Error("objective invoked concurrently from two workers")
				return 0, false
			}
			inUse = true
			mu.Unlock()
			v, ok := quadratic([]float64{3, 7})(out)
			mu.Lock()
			inUse = false
			mu.Unlock()
			return v, ok
		})
	}
	cfg := Config{Lo: 0, Hi: 10, CoarseStep: 1, FineStep: 1, Parallelism: 4}
	if _, err := Grid(2, cfg, 1, factory); err != nil {
		t.Fatal(err)
	}
	if made == 0 || made > 4 {
		t.Errorf("factory called %d times, want 1..4", made)
	}
}

func TestCoordinateDescentSeparableExact(t *testing.T) {
	// Separable objectives are solved exactly by coordinate descent.
	cfg := Config{Lo: 0, Hi: 10, CoarseStep: 1, FineStep: 1}
	res, err := CoordinateDescent(3, cfg, nil, Shared(quadratic([]float64{2, 9, 4})))
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{2, 9, 4}
	for i := range want {
		if math.Abs(res.Out[i]-want[i]) > 1e-9 {
			t.Errorf("Out[%d] = %g, want %g", i, res.Out[i], want[i])
		}
	}
}

func TestCoordinateDescentWithStart(t *testing.T) {
	cfg := Config{Lo: 0, Hi: 10, CoarseStep: 1, FineStep: 1}
	start := []float64{0, 0}
	res, err := CoordinateDescent(2, cfg, start, Shared(quadratic([]float64{8, 8})))
	if err != nil {
		t.Fatal(err)
	}
	if res.Out[0] != 8 || res.Out[1] != 8 {
		t.Errorf("Out = %v, want [8 8]", res.Out)
	}
	if start[0] != 0 {
		t.Error("start vector must not be mutated")
	}
}

func TestCoordinateDescentInfeasibleSentinel(t *testing.T) {
	cfg := Config{Lo: 0, Hi: 2, CoarseStep: 1, FineStep: 1}
	_, err := CoordinateDescent(1, cfg, nil, Shared(func([]float64) (float64, bool) { return 0, false }))
	if !errors.Is(err, ErrNoFeasible) {
		t.Errorf("err = %v, want ErrNoFeasible", err)
	}
}

func TestPartialFeasibility(t *testing.T) {
	// Only points with sum ≤ 10 are feasible; the best feasible point on
	// the lattice maximizing x+y is any with sum exactly 10.
	obj := func(out []float64) (float64, bool) {
		s := out[0] + out[1]
		return s, s <= 10
	}
	cfg := Config{Lo: 0, Hi: 10, CoarseStep: 2, FineStep: 1}
	res, err := CoarseToFine(2, cfg, Shared(obj))
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Value-10) > 1e-9 {
		t.Errorf("value = %g, want 10", res.Value)
	}
}

func TestLatticeLevelsIncludesHi(t *testing.T) {
	ls := latticeLevels(5, 25, 5)
	if len(ls) != 5 || ls[0] != 5 || ls[len(ls)-1] != 25 {
		t.Errorf("levels = %v", ls)
	}
	// Non-divisible range still ends at hi.
	ls = latticeLevels(0, 7, 3)
	if ls[len(ls)-1] != 7 {
		t.Errorf("levels = %v, last must be 7", ls)
	}
}

func TestWorkersClampsToGOMAXPROCS(t *testing.T) {
	max := runtime.GOMAXPROCS(0)
	cases := []struct{ requested, want int }{
		{0, max},        // default: use the machine
		{1, 1},          // explicit serial stays serial
		{max, max},      // exact fit
		{max + 1, max},  // oversubscription clamps down
		{max * 16, max}, // wildly oversubscribed clamps down
	}
	for _, c := range cases {
		if got := Workers(c.requested); got != c.want {
			t.Errorf("Workers(%d) = %d, want %d (GOMAXPROCS %d)",
				c.requested, got, c.want, max)
		}
	}
	if max > 1 {
		if got := Workers(max - 1); got != max-1 {
			t.Errorf("Workers(%d) = %d, want %d", max-1, got, max-1)
		}
	}
	// Config.workers follows the same policy.
	if got := (Config{Parallelism: max * 4}).workers(); got != max {
		t.Errorf("Config{Parallelism: %d}.workers() = %d, want %d", max*4, got, max)
	}
}
