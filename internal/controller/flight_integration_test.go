package controller_test

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
	"time"

	"thermaldc/internal/controller"
	"thermaldc/internal/faults"
	"thermaldc/internal/flightrec"
	"thermaldc/internal/stats"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/workload"
)

// TestFlightRecorderDumpsOnForcedFault: a 1ns solve budget times out every
// epoch and marches the ladder to a safe rung, so each epoch is a flight
// trigger. The recorder must produce at least one bundle that parses and
// carries the epoch's diagnosis (reason, rung, error kind, spans, sample).
func TestFlightRecorderDumpsOnForcedFault(t *testing.T) {
	sc := buildScenario(t, 1, 10)
	const horizon = 40.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(31))
	schedule := handSchedule(horizon)

	rec := telemetry.NewRecorder()
	rec.Trace = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	var series strings.Builder
	rec.Series = telemetry.NewJSONLWriter(&series)
	rec.NextRun()
	dir := t.TempDir()
	fr, err := flightrec.New(flightrec.Config{
		Dir:         dir,
		MinInterval: time.Nanosecond, // capture every trigger in this short run
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := controller.DefaultConfig(horizon, 10)
	cfg.Recorder = rec
	cfg.SolveTimeout = time.Nanosecond
	cfg.FlightRec = fr

	res, err := controller.Run(sc.DC, schedule, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks == 0 {
		t.Fatal("1ns solve budget produced no fallbacks; the fixture no longer forces faults")
	}
	recorded, _ := fr.Stats()
	if recorded == 0 {
		t.Fatal("no flight bundles recorded")
	}
	paths, err := flightrec.List(dir)
	if err != nil || len(paths) == 0 {
		t.Fatalf("bundle listing = %v, %v", paths, err)
	}
	b, err := flightrec.ReadBundle(paths[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(b.Reason, "ladder-") {
		t.Errorf("bundle reason = %q, want a ladder engagement", b.Reason)
	}
	if b.Rung == "" || b.Rung == "warm" {
		t.Errorf("bundle rung = %q, want a degraded rung", b.Rung)
	}
	if len(b.Spans) == 0 {
		t.Error("bundle carries no spans")
	}

	// Every bundle's epoch summary is its sample's, and that sample is
	// the row the series sink wrote for the same epoch.
	var rows []telemetry.EpochSample
	for _, line := range strings.Split(strings.TrimSpace(series.String()), "\n") {
		var s telemetry.EpochSample
		if err := json.Unmarshal([]byte(line), &s); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, s)
	}
	for _, path := range paths {
		b, err := flightrec.ReadBundle(path)
		if err != nil {
			t.Fatal(err)
		}
		s := b.LastSample
		if s == nil {
			t.Errorf("%s carries no epoch sample", path)
			continue
		}
		if b.Run != s.Run || b.Epoch != s.Epoch || b.Rung != s.Rung || b.ErrKind != s.ErrKind || b.Violations != s.Violations {
			t.Errorf("%s: bundle run %d epoch %d rung %q err %q violations %d, sample has %d %d %q %q %d",
				path, b.Run, b.Epoch, b.Rung, b.ErrKind, b.Violations, s.Run, s.Epoch, s.Rung, s.ErrKind, s.Violations)
		}
		if s.Epoch < 0 || s.Epoch >= len(rows) {
			t.Errorf("%s: sample epoch %d outside the %d series rows", path, s.Epoch, len(rows))
		} else if !reflect.DeepEqual(*s, rows[s.Epoch]) {
			t.Errorf("%s: sample differs from series row %d:\nbundle %+v\nseries %+v", path, s.Epoch, *s, rows[s.Epoch])
		}
	}
}

// TestFlightRecorderQuietOnHealthyRun: a healthy closed loop must record
// nothing — the black box only captures degradation.
func TestFlightRecorderQuietOnHealthyRun(t *testing.T) {
	sc := buildScenario(t, 1, 10)
	const horizon = 40.0
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(31))

	fr, err := flightrec.New(flightrec.Config{Dir: t.TempDir(), MinInterval: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	cfg := controller.DefaultConfig(horizon, 10)
	cfg.FlightRec = fr
	// No fault events and no solve budget: every epoch resolves warm.
	res, err := controller.Run(sc.DC, faults.Schedule{}, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Fallbacks != 0 || res.Violations != 0 {
		t.Skipf("fixture degraded on its own (%d fallbacks, %d violations)", res.Fallbacks, res.Violations)
	}
	if recorded, _ := fr.Stats(); recorded != 0 {
		t.Fatalf("healthy run recorded %d bundles", recorded)
	}
}
