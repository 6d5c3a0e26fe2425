package zones

import (
	"context"
	"reflect"
	"testing"

	"thermaldc/internal/telemetry"
)

// TestSolveScratchMatchesSolve: the scratch entry point must produce the
// same numbers as the cloning one, and its result must alias solver-owned
// buffers (overwritten by the next solve) while Solve's must not.
func TestSolveScratchMatchesSolve(t *testing.T) {
	f := buildFleet(t, FleetConfig{
		Zones: 3, NodesPerZone: 8, CracsPerZone: 2, Variants: 2, Seed: 9, PconstFraction: 0.2,
	})
	out := feasibleOutlets(f.NumCRACs())
	zs, err := NewFleetSolver(f, Config{Parallelism: 1})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cloned, err := zs.Solve(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := zs.SolveScratch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cloned, scratch) {
		t.Fatal("SolveScratch result differs from Solve")
	}
	if &cloned.CracOut[0] == &scratch.CracOut[0] {
		t.Fatal("Solve returned solver-owned buffers (retention hazard)")
	}
	// A second scratch solve reuses the same result storage.
	again, err := zs.SolveScratch(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	if again != scratch {
		t.Error("SolveScratch did not reuse its retained result")
	}
	// The clone must have stayed intact through the scratch solves.
	if !reflect.DeepEqual(cloned, again) {
		t.Error("Solve's clone was mutated by a later SolveScratch")
	}
}

// TestFleetTelemetryPublishes: an instrumented fleet solve must emit zone
// spans and coordination-round spans that agree with LastStats — without
// changing a single output bit relative to an uninstrumented solve.
func TestFleetTelemetryPublishes(t *testing.T) {
	build := func() *Fleet {
		f := buildFleet(t, FleetConfig{
			Zones: 3, NodesPerZone: 10, CracsPerZone: 2, Variants: 1, Seed: 13, PconstFraction: 0.9,
		})
		f.Pconst *= 0.7 // tight cap forces coordination rounds
		return f
	}
	out := feasibleOutlets(build().NumCRACs())
	ctx := context.Background()

	plainSolver, err := NewFleetSolver(build(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := plainSolver.Solve(ctx, out)
	if err != nil {
		t.Fatal(err)
	}

	rec := telemetry.NewRecorder()
	rec.Trace = telemetry.NewTracer(telemetry.DefaultTraceCapacity)
	zs, err := NewFleetSolver(build(), Config{Recorder: rec})
	if err != nil {
		t.Fatal(err)
	}
	res, err := zs.Solve(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, plain) {
		t.Error("telemetry changed the solve result")
	}

	st := zs.LastStats()
	byKind := rec.Trace.CountByKind()
	if got := byKind[telemetry.SpanZoneSolve]; got != st.ZoneSolves {
		t.Errorf("%d zone-solve spans for %d zone solves", got, st.ZoneSolves)
	}
	// One coord-round span per round past the unconstrained shortcut.
	if got := byKind[telemetry.SpanCoordRound]; got != st.Rounds {
		t.Errorf("%d coord-round spans for %d rounds", got, st.Rounds)
	}
	// Zone spans land on per-zone tracks with the zone index as label.
	seenTracks := map[int32]bool{}
	for _, s := range rec.Trace.Snapshot() {
		if s.Kind != telemetry.SpanZoneSolve {
			continue
		}
		if s.Label != s.Track {
			t.Errorf("zone span label %d != track %d", s.Label, s.Track)
		}
		seenTracks[s.Track] = true
	}
	if len(seenTracks) != 3 {
		t.Errorf("zone spans cover %d tracks, want 3", len(seenTracks))
	}

	// The tight cap must have driven the master past the shortcut, and
	// every zone LP solve must also show up as an LP-solve span from the
	// zone's Stage-1 solver.
	if st.Shortcut || st.Fallback || !st.Converged || st.Rounds < 1 || st.ZoneSolves < st.Zones {
		t.Errorf("LastStats = %+v, want a converged coordinated solve with at least one solve per zone", st)
	}
	if got := byKind[telemetry.SpanLPSolve]; got < st.ZoneSolves {
		t.Errorf("%d LP-solve spans for %d zone solves", got, st.ZoneSolves)
	}
}
