package controller_test

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/controller"
	"thermaldc/internal/stats"
	"thermaldc/internal/workload"
)

// normalizeWall zeroes the wall-clock fields, the only part of a Result
// that legitimately differs between an uninterrupted and a resumed run.
func normalizeWall(res *controller.Result) {
	for i := range res.Epochs {
		res.Epochs[i].SolveWall = 0
	}
}

// gobRoundTrip pushes a checkpoint through gob, as the persistence layer
// does, so the matrix also proves the checkpoint survives serialization.
func gobRoundTrip(t *testing.T, ck *controller.Checkpoint) *controller.Checkpoint {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(ck); err != nil {
		t.Fatalf("gob encode: %v", err)
	}
	out := new(controller.Checkpoint)
	if err := gob.NewDecoder(&buf).Decode(out); err != nil {
		t.Fatalf("gob decode: %v", err)
	}
	return out
}

// foldAll folds deltas into ck in order, failing the test on a rejected
// delta.
func foldAll(t testing.TB, ck *controller.Checkpoint, deltas []*controller.EpochDelta) *controller.Checkpoint {
	t.Helper()
	for _, d := range deltas {
		if err := ck.Fold(d); err != nil {
			t.Fatal(err)
		}
	}
	return ck
}

// TestResumeMatrixBitIdentical is the exact-resume property: for every
// epoch k, a run killed after epoch k and resumed from its checkpoint
// finishes with a Result identical — bit for bit, wall clock excepted —
// to the uninterrupted run. Checkpoints take a gob round trip on the way,
// like the on-disk journal's, and each is resumed twice: as folded, and
// with every plan's dense TC dropped, as the sweep's journal stores it.
func TestResumeMatrixBitIdentical(t *testing.T) {
	sc := buildScenario(t, 1, 10)
	const horizon = 40.0
	schedule := handSchedule(horizon)
	cfg := controller.DefaultConfig(horizon, 10)

	var deltas []*controller.EpochDelta
	cfg.Checkpoint = func(d *controller.EpochDelta) error {
		deltas = append(deltas, d)
		return nil
	}
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(31))
	golden, err := controller.Run(sc.DC, schedule, tasks, cfg)
	if err != nil {
		t.Fatal(err)
	}
	normalizeWall(golden)
	if len(deltas) != len(golden.Epochs) {
		t.Fatalf("sink saw %d deltas for %d epochs", len(deltas), len(golden.Epochs))
	}
	if len(deltas) < 5 {
		t.Fatalf("scenario too small for a meaningful matrix: %d epochs", len(deltas))
	}

	for k := 1; k <= len(deltas); k++ {
		k := k
		t.Run(fmt.Sprintf("kill-after-epoch-%d", k), func(t *testing.T) {
			for _, grouped := range []bool{false, true} {
				ck := gobRoundTrip(t, foldAll(t, controller.NewCheckpoint(), deltas[:k]))
				if grouped {
					dropTC(ck)
				}
				rcfg := cfg
				rcfg.Checkpoint = nil
				rcfg.Resume = ck
				// Fresh inputs, as a resuming process would regenerate them.
				rtasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(31))
				res, err := controller.Run(sc.DC, schedule, rtasks, rcfg)
				if err != nil {
					t.Fatalf("grouped=%v: %v", grouped, err)
				}
				normalizeWall(res)
				if !reflect.DeepEqual(golden, res) {
					t.Errorf("grouped=%v: resumed result diverges from the uninterrupted run:\ngolden: %+v\nresumed: %+v",
						grouped, golden, res)
				}
			}
		})
	}
}

// dropTC clears the dense TC of every plan in ck, leaving each plan's
// Stage 3 by core group only.
func dropTC(ck *controller.Checkpoint) {
	plans := []*assign.ThreeStageResult{ck.Plan, ck.LastGood}
	for i := range ck.Res.Epochs {
		plans = append(plans, ck.Res.Epochs[i].Plan)
	}
	for _, p := range plans {
		if p != nil && p.Stage3 != nil {
			p.Stage3.TC = nil
		}
	}
}

// TestResumeFoldEquivalence checks that deltas emitted by a resumed run
// fold onto the pre-kill checkpoint to the same final state as folding
// the uninterrupted run's full delta stream — i.e. checkpoint chains
// survive repeated kills.
func TestResumeFoldEquivalence(t *testing.T) {
	sc := buildScenario(t, 2, 10)
	const horizon = 40.0
	schedule := handSchedule(horizon)
	cfg := controller.DefaultConfig(horizon, 10)

	var full []*controller.EpochDelta
	cfg.Checkpoint = func(d *controller.EpochDelta) error { full = append(full, d); return nil }
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(33))
	if _, err := controller.Run(sc.DC, schedule, tasks, cfg); err != nil {
		t.Fatal(err)
	}
	want := foldAll(t, controller.NewCheckpoint(), full)

	k := len(full) / 2
	ck := foldAll(t, controller.NewCheckpoint(), full[:k])
	rcfg := cfg
	rcfg.Resume = gobRoundTrip(t, ck)
	rcfg.Checkpoint = ck.Fold
	rtasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(33))
	if _, err := controller.Run(sc.DC, schedule, rtasks, rcfg); err != nil {
		t.Fatal(err)
	}

	for i := range want.Res.Epochs {
		want.Res.Epochs[i].SolveWall = 0
		ck.Res.Epochs[i].SolveWall = 0
	}
	if !reflect.DeepEqual(want, ck) {
		t.Errorf("chained checkpoint diverges:\nwant %+v\ngot  %+v", want, ck)
	}
}

func TestResumeValidation(t *testing.T) {
	sc := buildScenario(t, 4, 10)
	const horizon = 40.0
	schedule := handSchedule(horizon)
	cfg := controller.DefaultConfig(horizon, 10)
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(37))

	var deltas []*controller.EpochDelta
	ccfg := cfg
	ccfg.Checkpoint = func(d *controller.EpochDelta) error { deltas = append(deltas, d); return nil }
	if _, err := controller.Run(sc.DC, schedule, tasks, ccfg); err != nil {
		t.Fatal(err)
	}
	valid := foldAll(t, controller.NewCheckpoint(), deltas[:2])

	t.Run("empty checkpoint", func(t *testing.T) {
		rcfg := cfg
		rcfg.Resume = controller.NewCheckpoint()
		if _, err := controller.Run(sc.DC, schedule, tasks, rcfg); err == nil {
			t.Error("resume from an empty checkpoint succeeded")
		}
	})
	for _, tc := range []struct {
		name   string
		mutate func(ck *controller.Checkpoint)
	}{
		{"core count mismatch", func(ck *controller.Checkpoint) { ck.FreeAt = ck.FreeAt[:len(ck.FreeAt)-1] }},
		{"epochs beyond horizon", func(ck *controller.Checkpoint) {
			ck.Res.Epochs = append(ck.Res.Epochs, make([]controller.EpochReport, 1000)...)
		}},
		{"task cursor past the arrivals", func(ck *controller.Checkpoint) { ck.TaskIdx = len(tasks) + 1 }},
		{"negative task cursor", func(ck *controller.Checkpoint) { ck.TaskIdx = -1 }},
		{"negative event cursor", func(ck *controller.Checkpoint) { ck.EvIdx = -1 }},
		{"event cursor past the schedule", func(ck *controller.Checkpoint) { ck.EvIdx = len(schedule.Events) + 1 }},
		{"plan without stage 1", func(ck *controller.Checkpoint) { ck.Plan.Stage1 = nil }},
		{"plan without stage 3", func(ck *controller.Checkpoint) { ck.Plan.Stage3 = nil }},
		{"plan P-states of the wrong length", func(ck *controller.Checkpoint) { ck.Plan.PStates = ck.Plan.PStates[1:] }},
		{"last good plan without stage 1", func(ck *controller.Checkpoint) { ck.LastGood.Stage1 = nil }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			bad := gobRoundTrip(t, valid)
			tc.mutate(bad)
			rcfg := cfg
			rcfg.Resume = bad
			if _, err := controller.Run(sc.DC, schedule, tasks, rcfg); err == nil {
				t.Errorf("resume with %s succeeded", tc.name)
			}
		})
	}
	t.Run("open loop rejects persistence", func(t *testing.T) {
		rcfg := cfg
		rcfg.Mode = controller.OpenLoop
		rcfg.Resume = valid
		if _, err := controller.Run(sc.DC, schedule, tasks, rcfg); err == nil {
			t.Error("open-loop resume succeeded")
		}
		rcfg.Resume = nil
		rcfg.Checkpoint = func(*controller.EpochDelta) error { return nil }
		if _, err := controller.Run(sc.DC, schedule, tasks, rcfg); err == nil {
			t.Error("open-loop checkpointing succeeded")
		}
	})
}

// TestCheckpointFoldRejectsBadRung: a delta decoded from disk may carry
// any rung. One outside [0, NumRungs) must fail the fold, not index the
// rung tally out of range, and must leave the checkpoint untouched.
func TestCheckpointFoldRejectsBadRung(t *testing.T) {
	for _, rung := range []controller.Rung{-1, controller.Rung(controller.NumRungs), 99} {
		t.Run(fmt.Sprintf("rung %d", rung), func(t *testing.T) {
			ck := controller.NewCheckpoint()
			before := gobRoundTrip(t, ck)
			d := &controller.EpochDelta{Report: controller.EpochReport{Resolved: true, Rung: rung}}
			if err := ck.Fold(d); err == nil {
				t.Fatalf("fold accepted rung %d", rung)
			}
			if !reflect.DeepEqual(before, gobRoundTrip(t, ck)) {
				t.Error("a rejected fold changed the checkpoint")
			}
		})
	}
}

func TestCheckpointSinkErrorAborts(t *testing.T) {
	sc := buildScenario(t, 5, 10)
	const horizon = 40.0
	schedule := handSchedule(horizon)
	cfg := controller.DefaultConfig(horizon, 10)
	sinkErr := errors.New("disk gone")
	cfg.Checkpoint = func(*controller.EpochDelta) error { return sinkErr }
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(39))
	_, err := controller.Run(sc.DC, schedule, tasks, cfg)
	if !errors.Is(err, sinkErr) {
		t.Fatalf("run error %v, want the sink's", err)
	}
}

// FuzzResumeCheckpoint feeds the resume boundary checkpoints that are
// valid except for fuzzed cursors, epoch count, FreeAt and SchedCounts
// lengths, missing plan parts, and the rung of the last folded delta. A
// resume reads its checkpoint from disk, so whatever the fields hold the
// fold must return an error or the resume an error or a result, never
// panic.
func FuzzResumeCheckpoint(f *testing.F) {
	sc := buildScenario(f, 4, 10)
	const horizon = 40.0
	schedule := handSchedule(horizon)
	cfg := controller.DefaultConfig(horizon, 10)
	tasks := workload.GenerateTasks(sc.DC, horizon, stats.NewRand(37))

	var deltas []*controller.EpochDelta
	ccfg := cfg
	ccfg.Checkpoint = func(d *controller.EpochDelta) error { deltas = append(deltas, d); return nil }
	if _, err := controller.Run(sc.DC, schedule, tasks, ccfg); err != nil {
		f.Fatal(err)
	}
	// The valid checkpoint folds two deltas; the fuzz body decodes the
	// first-delta checkpoint and the second delta afresh each time and
	// folds the delta under a fuzzed rung.
	var enc, encDelta bytes.Buffer
	if err := gob.NewEncoder(&enc).Encode(foldAll(f, controller.NewCheckpoint(), deltas[:1])); err != nil {
		f.Fatal(err)
	}
	if err := gob.NewEncoder(&encDelta).Encode(deltas[1]); err != nil {
		f.Fatal(err)
	}
	valid := foldAll(f, controller.NewCheckpoint(), deltas[:2])
	rung := int8(deltas[1].Report.Rung)

	f.Add(valid.EvIdx, valid.TaskIdx, int8(0), int8(0), int8(0), int8(0), uint8(0), rung)
	f.Add(-1, valid.TaskIdx, int8(0), int8(0), int8(0), int8(0), uint8(0), rung)
	f.Add(valid.EvIdx, len(tasks)+1, int8(0), int8(0), int8(0), int8(0), uint8(0), rung)
	f.Add(valid.EvIdx, 0, int8(0), int8(0), int8(0), int8(0), uint8(0), rung)
	f.Add(valid.EvIdx, valid.TaskIdx, int8(-2), int8(-1), int8(1), int8(1), uint8(0), rung)
	f.Add(valid.EvIdx, valid.TaskIdx, int8(0), int8(0), int8(0), int8(-1), uint8(0), rung)
	f.Add(valid.EvIdx, valid.TaskIdx, int8(0), int8(0), int8(0), int8(0), uint8(0b10101), rung)
	f.Add(valid.EvIdx, valid.TaskIdx, int8(0), int8(0), int8(0), int8(0), uint8(0), int8(99))
	// The epoch and length arguments are offsets from the valid
	// checkpoint's.
	f.Fuzz(func(t *testing.T, evIdx, taskIdx int, epochs, freeAtLen, countRows, row0Len int8, nils uint8, rung int8) {
		ck := new(controller.Checkpoint)
		if err := gob.NewDecoder(bytes.NewReader(enc.Bytes())).Decode(ck); err != nil {
			t.Fatal(err)
		}
		d := new(controller.EpochDelta)
		if err := gob.NewDecoder(bytes.NewReader(encDelta.Bytes())).Decode(d); err != nil {
			t.Fatal(err)
		}
		d.Report.Rung = controller.Rung(rung)
		if err := ck.Fold(d); err != nil {
			if rung >= 0 && int(rung) < controller.NumRungs {
				t.Fatalf("fold rejected rung %d: %v", rung, err)
			}
			return
		}
		ck.EvIdx, ck.TaskIdx = evIdx, taskIdx
		ck.Res.Epochs = resized(ck.Res.Epochs, int(epochs))
		ck.FreeAt = resized(ck.FreeAt, int(freeAtLen))
		ck.SchedCounts = resized(ck.SchedCounts, int(countRows))
		if len(ck.SchedCounts) > 0 {
			ck.SchedCounts[0] = resized(ck.SchedCounts[0], int(row0Len))
		}
		for bit, drop := range []func(){
			func() { ck.Plan.Stage1 = nil },
			func() { ck.Plan.Stage3 = nil },
			func() { ck.LastGood = nil },
			func() { ck.Faults = nil },
			func() { ck.Plan = nil },
		} {
			if nils&(1<<bit) != 0 {
				drop()
			}
		}
		rcfg := cfg
		rcfg.Resume = ck
		res, err := controller.RunContext(context.Background(), sc.DC, schedule, tasks, rcfg)
		if err == nil && res == nil {
			t.Fatal("resume returned neither a result nor an error")
		}
	})
}

// resized returns s cut or zero-extended by delta elements (never below
// empty).
func resized[T any](s []T, delta int) []T {
	n := max(len(s)+delta, 0)
	if n <= len(s) {
		return s[:n]
	}
	return append(s, make([]T, n-len(s))...)
}
