package tempsearch

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestGridCancelMidSearch cancels the search from inside an objective
// evaluation — the worker pool must drain cleanly, the error must unwrap
// to context.Canceled, and no goroutine may outlive the call.
func TestGridCancelMidSearch(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var evals int64
	factory := func() Evaluator {
		return Objective(func(out []float64) (float64, bool) {
			if atomic.AddInt64(&evals, 1) == 5 {
				cancel() // pull the plug mid-search
			}
			return -out[0], true
		})
	}
	cfg := Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1, Parallelism: 4}
	// 3 CRACs at 1 °C over [5, 25] = 9261 candidates: far more than can
	// finish before the 5th evaluation cancels.
	_, err := GridContext(ctx, 3, cfg, 1, factory)
	if err == nil {
		t.Fatal("want cancellation error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("errors.Is(err, context.Canceled) = false for %v", err)
	}

	// Every worker goroutine must exit; allow the runtime a moment to
	// reap them before declaring a leak.
	deadline := time.Now().Add(2 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before search, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCoarseToFineCancelSerial covers the serial (Parallelism=1) path and
// the refinement loop's error propagation.
func TestCoarseToFineCancelSerial(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var evals int64
	factory := func() Evaluator {
		return Objective(func(out []float64) (float64, bool) {
			if atomic.AddInt64(&evals, 1) == 3 {
				cancel()
			}
			return -out[0], true
		})
	}
	cfg := Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1, Parallelism: 1}
	_, err := CoarseToFineContext(ctx, 2, cfg, factory)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestCoordinateDescentCancel covers the sequential strategy.
func TestCoordinateDescentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1, Parallelism: 1}
	_, err := CoordinateDescentContext(ctx, 2, cfg, nil, Shared(func(out []float64) (float64, bool) {
		return -out[0], true
	}))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestContextVariantsIdenticalWhenUncancelled: threading a live context
// must not change any result bit — value, vector, or eval count — for any
// strategy or worker count.
func TestContextVariantsIdenticalWhenUncancelled(t *testing.T) {
	eval := func(out []float64) (float64, bool) {
		v := 0.0
		for i, x := range out {
			v -= (x - 18.5 - float64(i)) * (x - 18.5 - float64(i))
		}
		return v, v > -40
	}
	for _, par := range []int{1, 4} {
		cfg := Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1, Parallelism: par}
		plain, err := CoarseToFine(2, cfg, Shared(eval))
		if err != nil {
			t.Fatal(err)
		}
		ctxed, err := CoarseToFineContext(context.Background(), 2, cfg, Shared(eval))
		if err != nil {
			t.Fatal(err)
		}
		if plain.Value != ctxed.Value || plain.Evals != ctxed.Evals {
			t.Errorf("par=%d: (%g, %d) vs (%g, %d)", par, plain.Value, plain.Evals, ctxed.Value, ctxed.Evals)
		}
		for i := range plain.Out {
			if plain.Out[i] != ctxed.Out[i] {
				t.Errorf("par=%d: Out[%d] %g vs %g", par, i, plain.Out[i], ctxed.Out[i])
			}
		}
	}
}
