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
// metrics, tracing, and series export — and checks that (a) results are
// identical to an uninstrumented run and (b) every layer published.
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
	rec.Series.NextRun()
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

	snap := rec.Metrics.Snapshot()
	for _, name := range []string{
		"tapo_controller_resolves_total",
		"tapo_sim_tasks_completed_total",
		"tapo_lp_solves_total",
		"tapo_lp_pivots_total",
		"tapo_stage1_solves_total",
		"tapo_stage3_solves_total",
		"tapo_sched_assigned_total",
	} {
		v, ok := snap[name].(int64)
		if !ok || v <= 0 {
			t.Errorf("metric %s = %v, want > 0", name, snap[name])
		}
	}
	if v, ok := snap[`tapo_controller_epochs_total{rung="warm"}`].(int64); !ok || v <= 0 {
		t.Errorf("warm-rung epoch counter = %v", snap[`tapo_controller_epochs_total{rung="warm"}`])
	}
	if v, ok := snap["tapo_plant_power_kw"].(float64); !ok || v <= 0 {
		t.Errorf("power gauge = %v", snap["tapo_plant_power_kw"])
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
	}
	if prevEnd != horizon {
		t.Errorf("series ends at %g, want %g", prevEnd, horizon)
	}

	// The open loop's single solve folds like any re-solving epoch: its
	// totals count one warm resolve, as the registry does.
	orec := telemetry.NewRecorder()
	ocfg := controller.DefaultConfig(horizon, 10)
	ocfg.Mode = controller.OpenLoop
	ocfg.Recorder = orec
	open, err := controller.Run(sc.DC, schedule, tasks, ocfg)
	if err != nil {
		t.Fatal(err)
	}
	warm, _ := orec.Metrics.Snapshot()[`tapo_controller_epochs_total{rung="warm"}`].(int64)
	if warm != 1 || int64(open.Resolves) != warm || int64(open.RungCounts[controller.RungWarm]) != warm {
		t.Errorf("open loop: Resolves %d, RungCounts[warm] %d, registry warm epochs %d; want all 1",
			open.Resolves, open.RungCounts[controller.RungWarm], warm)
	}
}
