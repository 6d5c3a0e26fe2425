package controller_test

import (
	"context"
	"sync"
	"testing"

	"thermaldc/internal/controller"
	"thermaldc/internal/faults"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

// TestSoakConcurrentControllers drives several controller runs at once,
// each with a parallel temperature search inside every re-solve, and
// cross-checks determinism between two concurrent copies of the same
// configuration. Under `go test -race` (the make ci gate) this covers the
// epoch loop's interaction with the tempsearch worker pool — the
// controller mutates its planner model between solves, so any sharing of
// mutable state with still-running search workers would trip the detector.
func TestSoakConcurrentControllers(t *testing.T) {
	sc := buildScenario(t, 12, 10)
	const horizon = 30.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(77))
	schedule, err := faults.Generate(faults.DefaultGenConfig(5, horizon, sc.DC.NCRAC(), sc.DC.NCN()))
	if err != nil {
		t.Fatal(err)
	}
	cfg := controller.DefaultConfig(horizon, 8)
	cfg.Assign.Search.Parallelism = 4

	const copies = 4
	results := make([]*controller.Result, copies)
	var wg sync.WaitGroup
	for c := 0; c < copies; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			mode := controller.Reoptimize
			if c%2 == 1 {
				mode = controller.OpenLoop
			}
			run := cfg
			run.Mode = mode
			// All copies share the base model on purpose: Run must treat it
			// as read-only (every plan works on a Degrade projection), and
			// the race detector holds it to that.
			res, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, run)
			if err != nil {
				t.Error(err)
				return
			}
			results[c] = res
		}(c)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	// Same-mode concurrent copies must agree exactly.
	if results[0].TotalReward != results[2].TotalReward || results[0].Lost != results[2].Lost {
		t.Error("concurrent closed-loop runs disagree")
	}
	if results[1].TotalReward != results[3].TotalReward || results[1].Lost != results[3].Lost {
		t.Error("concurrent open-loop runs disagree")
	}
}
