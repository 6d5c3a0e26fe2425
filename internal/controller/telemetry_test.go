package controller_test

import (
	"encoding/json"
	"strings"
	"testing"

	"thermaldc/internal/controller"
	"thermaldc/internal/stats"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/workload"
)

// TestRecorderPublishes runs the closed loop with full telemetry on —
// tracing and series export — and checks that (a) results are identical
// to an uninstrumented run and (b) every layer published, with the series
// rows adding up to the run's totals.
func TestRecorderPublishes(t *testing.T) {
	sc := buildScenario(t, 1, 10)
	const horizon = 40.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(31))
	schedule := handSchedule(horizon)

	plain, err := controller.Run(sc.DC, schedule, tasks, controller.DefaultConfig(horizon, 10))
	if err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder()
	rec.Trace = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	var buf strings.Builder
	rec.Series = telemetry.NewJSONLWriter(&buf)
	rec.NextRun()
	cfg := controller.DefaultConfig(horizon, 10)
	cfg.Recorder = rec
	res, err := controller.Run(sc.DC, schedule, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// Telemetry must never change results.
	if res.TotalReward != plain.TotalReward || res.Completed != plain.Completed ||
		res.Resolves != plain.Resolves || res.LP != plain.LP {
		t.Error("instrumented run differs from uninstrumented run")
	}

	byKind := rec.Trace.CountByKind()
	for _, k := range []telemetry.SpanKind{
		telemetry.SpanEpoch, telemetry.SpanRung, telemetry.SpanStage,
		telemetry.SpanCandidate, telemetry.SpanLPSolve,
	} {
		if byKind[k] == 0 {
			t.Errorf("no %s spans recorded", k)
		}
	}

	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(res.Epochs) {
		t.Fatalf("series wrote %d rows for %d epochs", len(lines), len(res.Epochs))
	}
	schema := telemetry.SampleSchema()
	prevEnd := 0.0
	var warm, completed int
	var lpSolves int64
	for i, line := range lines {
		var keys map[string]json.RawMessage
		if err := json.Unmarshal([]byte(line), &keys); err != nil {
			t.Fatalf("row %d: %v", i, err)
		}
		for k := range keys {
			if _, ok := schema[k]; !ok {
				t.Errorf("row %d emits unknown key %q", i, k)
			}
		}
		var s telemetry.EpochSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		if s.Run != 1 || s.Epoch != i || s.TStart != prevEnd {
			t.Errorf("row %d = run %d epoch %d [%g, %g), want contiguous run-1 series",
				i, s.Run, s.Epoch, s.TStart, s.TEnd)
		}
		prevEnd = s.TEnd
		if s.Rung == controller.RungWarm.String() {
			warm++
		}
		completed += s.Completed
		lpSolves += s.LPSolves
		if s.PowerKW <= 0 {
			t.Errorf("row %d power %g kW, want > 0", i, s.PowerKW)
		}
	}
	if prevEnd != horizon {
		t.Errorf("series ends at %g, want %g", prevEnd, horizon)
	}
	if warm == 0 || warm != res.RungCounts[controller.RungWarm] ||
		completed != res.Completed || lpSolves <= 0 || lpSolves != res.LP.Solves {
		t.Errorf("series totals: %d warm rows, %d completed, %d LP solves; run has %d, %d, %d",
			warm, completed, lpSolves, res.RungCounts[controller.RungWarm], res.Completed, res.LP.Solves)
	}

	// The open loop's single solve folds like any re-solving epoch: its
	// totals count one warm resolve, and its one series row says so.
	var obuf strings.Builder
	orec := &telemetry.Recorder{Series: telemetry.NewJSONLWriter(&obuf)}
	orec.NextRun()
	ocfg := controller.DefaultConfig(horizon, 10)
	ocfg.Mode = controller.OpenLoop
	ocfg.Recorder = orec
	open, err := controller.Run(sc.DC, schedule, tasks, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	var row telemetry.EpochSample
	if err := json.Unmarshal([]byte(obuf.String()), &row); err != nil || orec.Series.Samples() != 1 {
		t.Fatalf("open loop wrote %d rows (%v), want 1", orec.Series.Samples(), err)
	}
	if !row.Resolved || row.Rung != controller.RungWarm.String() || open.Resolves != 1 || open.RungCounts[controller.RungWarm] != 1 {
		t.Errorf("open loop: row resolved %v rung %q, Resolves %d, RungCounts[warm] %d; want one warm resolve",
			row.Resolved, row.Rung, open.Resolves, open.RungCounts[controller.RungWarm])
	}
}
