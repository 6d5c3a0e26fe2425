package experiments_test

import (
	"math"
	"strings"
	"testing"
	"time"

	"thermaldc/internal/experiments"
	"thermaldc/internal/flightrec"
	"thermaldc/internal/telemetry"
)

func TestDegradedSweepRejectsImpossibleLevels(t *testing.T) {
	for _, lvl := range []experiments.DegradedLevel{{11, 0}, {-1, 0}, {0, -1}} {
		cfg := experiments.DefaultDegradedConfig(3)
		cfg.NNodes = 10
		cfg.Levels = []experiments.DegradedLevel{{0, 0}, lvl}
		if _, err := experiments.DegradedSweep(cfg); err == nil {
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
	res, err := experiments.DegradedSweep(cfg)
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
	if _, err := experiments.DegradedSweep(cfg); err == nil {
		t.Error("zero trials accepted")
	}
	cfg = experiments.DefaultDegradedConfig(1)
	cfg.Levels = nil
	if _, err := experiments.DegradedSweep(cfg); err == nil {
		t.Error("empty levels accepted")
	}
}

// TestDegradedSweepFlightBundlesCarryRuns: with a tracer and a flight
// recorder but no series sink, each closed-loop run's bundles must carry
// that run's number (never 0), distinct per run and equal to the trace
// pid of the spans the run recorded.
func TestDegradedSweepFlightBundlesCarryRuns(t *testing.T) {
	cfg := experiments.DefaultDegradedConfig(3)
	cfg.NNodes = 10
	cfg.Trials = 1
	cfg.Horizon = 30
	cfg.Epoch = 10
	cfg.Levels = []experiments.DegradedLevel{{0, 0}, {2, 1}}
	cfg.SolveTimeout = time.Nanosecond // every re-solve falls to a safe rung
	tr := telemetry.NewTracer(0)
	cfg.Recorder = &telemetry.Recorder{Trace: tr}
	dir := t.TempDir()
	fr, err := flightrec.New(flightrec.Config{Dir: dir, MaxBundles: 1000, MinInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg.FlightRec = fr
	if _, err := experiments.DegradedSweep(cfg); err != nil {
		t.Fatal(err)
	}

	paths, err := flightrec.List(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("bundle listing = %v, %v", paths, err)
	}
	pids := map[int32]bool{}
	for _, s := range tr.Snapshot() {
		pids[s.Run] = true
	}
	runs := map[int]bool{}
	for _, path := range paths {
		b, err := flightrec.ReadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		if b.LastSample == nil {
			t.Fatalf("%s carries no epoch sample", path)
		}
		if b.Run < 1 || b.LastSample.Run != b.Run {
			t.Errorf("%s: run %d, sample run %d; want them equal and at least 1", path, b.Run, b.LastSample.Run)
		}
		if n := len(b.Spans); n == 0 || int(b.Spans[n-1].Run) != b.Run || !pids[int32(b.Run)] {
			t.Errorf("%s: run %d does not match the pid of its latest span", path, b.Run)
		}
		runs[b.Run] = true
	}
	if len(runs) != len(cfg.Levels)*cfg.Trials {
		t.Errorf("bundles carry runs %v, want one distinct run per closed-loop run (%d)", runs, len(cfg.Levels)*cfg.Trials)
	}
}
