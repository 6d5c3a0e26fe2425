package experiments_test

import (
	"context"
	"math"
	"strings"
	"testing"
	"time"

	"thermaldc/internal/experiments"
	"thermaldc/internal/telemetry"
)

func TestDegradedSweepRejectsImpossibleLevels(t *testing.T) {
	for _, lvl := range []experiments.DegradedLevel{{11, 0}, {-1, 0}, {0, -1}} {
		cfg := experiments.DefaultDegradedConfig(3)
		cfg.NNodes = 10
		cfg.Levels = []experiments.DegradedLevel{{0, 0}, lvl}
		if _, err := experiments.DegradedSweep(context.Background(), cfg); err == nil {
			t.Errorf("level %+v on %d nodes accepted", lvl, cfg.NNodes)
		}
	}
}

func TestDegradedSweep(t *testing.T) {
	cfg := experiments.DefaultDegradedConfig(3)
	cfg.NNodes = 10
	cfg.Trials = 2
	cfg.Horizon = 40
	cfg.Epoch = 10
	cfg.Levels = []experiments.DegradedLevel{{0, 0}, {2, 1}, {3, 1}}
	res, err := experiments.DegradedSweep(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != len(cfg.Levels) {
		t.Fatalf("%d rows for %d levels", len(res.Rows), len(cfg.Levels))
	}
	// Healthy level: the modes coincide, nothing lost, nothing violated.
	// (Tolerance covers summation-order drift: the closed loop accumulates
	// reward per epoch, the open loop over the whole run.)
	base := res.Rows[0]
	if math.Abs(base.ClosedReward-base.OpenReward) > 1e-9 {
		t.Errorf("healthy level: closed %g != open %g", base.ClosedReward, base.OpenReward)
	}
	if base.ClosedLost != 0 || base.OpenLost != 0 {
		t.Error("healthy level lost tasks")
	}
	for _, row := range res.Rows {
		// The closed loop's contract: constraints hold at every severity.
		if row.ClosedPowerExcess > 1e-6 {
			t.Errorf("level %+v: closed loop power excess %g kW", row.Level, row.ClosedPowerExcess)
		}
		if row.ClosedInletExcess > 1e-6 {
			t.Errorf("level %+v: closed loop inlet excess %g °C", row.Level, row.ClosedInletExcess)
		}
		if row.Fallbacks != 0 {
			t.Errorf("level %+v: %d fallbacks", row.Level, row.Fallbacks)
		}
	}
	// Re-optimization must win on reward once nodes die: the frozen plan
	// keeps feeding dead nodes.
	last := res.Rows[len(res.Rows)-1]
	if last.ClosedReward <= last.OpenReward {
		t.Errorf("hardest level: closed %g did not beat open %g", last.ClosedReward, last.OpenReward)
	}
	if last.ClosedLost >= last.OpenLost {
		t.Errorf("hardest level: closed lost %g >= open lost %g", last.ClosedLost, last.OpenLost)
	}

	out := res.Render()
	if !strings.Contains(out, "Degraded operation") || !strings.Contains(out, "gain%") {
		t.Error("render is missing the header")
	}
	if strings.Count(out, "\n") < len(cfg.Levels)+3 {
		t.Error("render is missing rows")
	}
}

func TestDegradedSweepRejectsBadConfig(t *testing.T) {
	cfg := experiments.DefaultDegradedConfig(1)
	cfg.Trials = 0
	if _, err := experiments.DegradedSweep(context.Background(), cfg); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = experiments.DefaultDegradedConfig(1)
	cfg.Levels = nil
	if _, err := experiments.DegradedSweep(context.Background(), cfg); err == nil {
		t.Error("empty levels accepted")
	}
}

// TestDegradedSweepSpansCarryRuns: with a tracer but no series sink, each
// closed-loop run's spans must carry one run number, at least 1 and
// distinct per run, so the trace's pids separate the sweep's runs.
func TestDegradedSweepSpansCarryRuns(t *testing.T) {
	cfg := experiments.DefaultDegradedConfig(3)
	cfg.NNodes = 10
	cfg.Trials = 1
	cfg.Horizon = 30
	cfg.Epoch = 10
	cfg.Levels = []experiments.DegradedLevel{{0, 0}, {2, 1}}
	cfg.SolveTimeout = time.Nanosecond // every re-solve falls to a safe rung
	const capacity = 1 << 14
	tr := telemetry.NewTracer(capacity)
	cfg.Recorder = &telemetry.Recorder{Trace: tr}
	if _, err := experiments.DegradedSweep(context.Background(), cfg); err != nil {
		t.Fatal(err)
	}
	if n := tr.Count(); n > capacity {
		t.Fatalf("%d spans overflowed the %d-span ring", n, capacity)
	}

	// Only the closed loop records epoch spans, and each run's epoch
	// labels restart at 0.
	var runs []int32
	for _, s := range tr.Snapshot() {
		if s.Kind != telemetry.SpanEpoch {
			continue
		}
		if s.Label == 0 {
			runs = append(runs, s.Run)
		} else if len(runs) == 0 || s.Run != runs[len(runs)-1] {
			t.Errorf("epoch %d span carries run %d, not its run's (runs so far %v)", s.Label, s.Run, runs)
		}
	}
	if len(runs) != len(cfg.Levels)*cfg.Trials {
		t.Fatalf("epoch spans start %d runs %v, want one per closed-loop run (%d)", len(runs), runs, len(cfg.Levels)*cfg.Trials)
	}
	seen := map[int32]bool{}
	for _, r := range runs {
		if r < 1 || seen[r] {
			t.Errorf("closed-loop runs carry %v; want distinct numbers of at least 1", runs)
		}
		seen[r] = true
	}
}
