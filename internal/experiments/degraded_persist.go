package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"

	"thermaldc/internal/controller"
	"thermaldc/internal/linprog"
	"thermaldc/internal/persist"
)

// This file persists the degraded-operation sweep through internal/persist:
// every completed closed-loop epoch and every finished run is one durable
// journal record, so a killed sweep resumes at the exact epoch it died in.
//
// The journal carries two record kinds, gob-encoded:
//
//   - epochRecord: one controller.EpochDelta of the closed-loop run in
//     progress. Folding a run's deltas in order (controller.Checkpoint.Fold)
//     rebuilds the mid-run state the controller resumes from.
//   - runDoneRecord: a finished run (closed or open) reduced to exactly
//     the values the sweep's row accumulation reads. Completed runs are
//     never re-executed on resume; their journaled summaries feed the
//     identical accumulation code path, so a resumed sweep's table is
//     byte-identical to an uninterrupted one.
//
// Open-loop runs are single solves and do not checkpoint mid-run: killed
// mid-open-run, the resume re-executes it from scratch (deterministic, so
// nothing is lost but wall time).
//
// Snapshots compact recovery: every snapshotEvery commits the folded sweep
// state (finished-run summaries + the in-progress run's checkpoint) is
// atomically rewritten, so resume replays only the journal tail.

// runKey identifies one run of the sweep.
type runKey struct {
	// Level indexes DegradedConfig.Levels; Trial counts within the level.
	Level, Trial int
	// Open distinguishes the open-loop run from the closed-loop one.
	Open bool
}

// runSummary is a finished run reduced to the row-accumulation inputs.
type runSummary struct {
	RewardRate                   float64
	Lost                         int
	Resolves, Fallbacks, Retries int
	RungCounts                   [controller.NumRungs]int
	LP                           linprog.Stats
	MaxPowerExcess               float64
	MaxInletExcess               float64
}

func summarize(r *controller.Result) runSummary {
	return runSummary{
		RewardRate:     r.RewardRate,
		Lost:           r.Lost,
		Resolves:       r.Resolves,
		Fallbacks:      r.Fallbacks,
		Retries:        r.Retries,
		RungCounts:     r.RungCounts,
		LP:             r.LP,
		MaxPowerExcess: r.MaxPowerExcess,
		MaxInletExcess: r.MaxInletExcess,
	}
}

// epochRecord journals one completed closed-loop epoch.
type epochRecord struct {
	Key   runKey
	Delta *controller.EpochDelta
}

// runDoneRecord journals one finished run.
type runDoneRecord struct {
	Key     runKey
	Summary runSummary
}

// journalRecord is the tagged union stored in each journal record.
type journalRecord struct {
	Epoch   *epochRecord
	RunDone *runDoneRecord
}

// doneEntry is one finished run in the snapshot, in completion order.
type doneEntry struct {
	Key     runKey
	Summary runSummary
}

// sweepSnapshot is the compacted sweep state written as the snapshot
// payload.
type sweepSnapshot struct {
	Done []doneEntry
	// PartialKey/Partial carry the in-progress closed run's folded
	// checkpoint, when one exists.
	PartialKey *runKey
	Partial    *controller.Checkpoint
}

// runTag hashes every configuration field that influences results, so a
// checkpoint directory can never be resumed under different parameters
// (persist.KindMismatch instead of a silently diverging run). Telemetry
// hooks are excluded: they never change results.
func (cfg DegradedConfig) runTag() persist.Tag {
	opts := cfg.Options
	opts.Recorder = nil
	opts.Search.Trace = nil
	h := sha256.New()
	fmt.Fprintf(h, "degraded|v3|%d|%d|%v|%v|%d|%v|%v|%d|%+v|%+v|%v",
		cfg.NCracs, cfg.NNodes, cfg.StaticShare, cfg.Vprop, cfg.Seed,
		cfg.Horizon, cfg.Epoch, cfg.Trials, cfg.Levels, opts, cfg.SolveTimeout)
	var tag persist.Tag
	h.Sum(tag[:0])
	return tag
}

// sweepCheckpoint drives the store for one sweep. A nil *sweepCheckpoint
// is valid and inert, so the sweep body is uncluttered by enablement
// checks on the hot path.
type sweepCheckpoint struct {
	store     *persist.Store
	snapEvery int
	hook      func(commits int)

	done       map[runKey]runSummary
	order      []runKey
	partialKey *runKey
	partial    *controller.Checkpoint
	commits    int
}

func corruptErr(dir string, cause error) error {
	return &persist.Error{Op: "sweep resume", Kind: persist.KindCorrupt, Path: dir, Cause: cause}
}

// openSweepCheckpoint creates or recovers the checkpoint directory. It
// returns nil when checkpointing is disabled.
func openSweepCheckpoint(cfg DegradedConfig) (*sweepCheckpoint, error) {
	if cfg.CheckpointDir == "" {
		if cfg.Resume {
			return nil, fmt.Errorf("experiments: resume requested without a checkpoint directory")
		}
		return nil, nil
	}
	ck := &sweepCheckpoint{
		snapEvery: cfg.SnapshotEvery,
		hook:      cfg.CommitHook,
		done:      make(map[runKey]runSummary),
	}
	if ck.snapEvery == 0 {
		ck.snapEvery = 8
	}
	tag := cfg.runTag()
	if !cfg.Resume {
		store, err := persist.CreateStore(cfg.CheckpointDir, tag)
		if err != nil {
			return nil, err
		}
		ck.store = store
		return ck, nil
	}
	store, rec, err := persist.OpenStore(cfg.CheckpointDir, tag)
	if err != nil {
		return nil, err
	}
	ck.store = store
	if rec.Snapshot != nil {
		var snap sweepSnapshot
		if err := gob.NewDecoder(bytes.NewReader(rec.Snapshot)).Decode(&snap); err != nil {
			store.Close()
			return nil, corruptErr(cfg.CheckpointDir, fmt.Errorf("decoding snapshot: %w", err))
		}
		for _, e := range snap.Done {
			ck.done[e.Key] = e.Summary
			ck.order = append(ck.order, e.Key)
		}
		ck.partialKey, ck.partial = snap.PartialKey, snap.Partial
	}
	for _, r := range rec.Records {
		var jr journalRecord
		if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&jr); err != nil {
			store.Close()
			return nil, corruptErr(cfg.CheckpointDir, fmt.Errorf("decoding record %d: %w", r.Seq, err))
		}
		if err := ck.fold(&jr); err != nil {
			store.Close()
			return nil, corruptErr(cfg.CheckpointDir, fmt.Errorf("replaying record %d: %w", r.Seq, err))
		}
	}
	return ck, nil
}

// fold replays one journal record into the recovered sweep state,
// mirroring exactly what the live sink/finishRun pair did when the record
// was committed.
func (ck *sweepCheckpoint) fold(jr *journalRecord) error {
	switch {
	case jr.Epoch != nil:
		key := jr.Epoch.Key
		if key.Open {
			return fmt.Errorf("epoch record for an open-loop run %+v", key)
		}
		if _, isDone := ck.done[key]; isDone {
			return fmt.Errorf("epoch record for already finished run %+v", key)
		}
		if ck.partialKey == nil || *ck.partialKey != key {
			if ck.partial != nil && len(ck.partial.Res.Epochs) > 0 {
				return fmt.Errorf("epoch record for %+v while %+v is unfinished", key, *ck.partialKey)
			}
			k := key
			ck.partialKey, ck.partial = &k, controller.NewCheckpoint()
		}
		if jr.Epoch.Delta == nil {
			return fmt.Errorf("epoch record for %+v carries no delta", key)
		}
		if err := ck.partial.Fold(jr.Epoch.Delta); err != nil {
			return err
		}
	case jr.RunDone != nil:
		key := jr.RunDone.Key
		if _, isDone := ck.done[key]; isDone {
			return fmt.Errorf("run %+v finished twice", key)
		}
		ck.done[key] = jr.RunDone.Summary
		ck.order = append(ck.order, key)
		if ck.partialKey != nil && *ck.partialKey == key {
			ck.partialKey, ck.partial = nil, nil
		}
	default:
		return fmt.Errorf("record is neither an epoch nor a run completion")
	}
	return nil
}

// completed reports a journaled summary for the run, if one exists.
func (ck *sweepCheckpoint) completed(key runKey) (runSummary, bool) {
	if ck == nil {
		return runSummary{}, false
	}
	s, ok := ck.done[key]
	return s, ok
}

// begin prepares persistence for one closed-loop run: the checkpoint to
// resume from (nil for a fresh run) and the live fold target the sink
// advances. A recovered partial belonging to a different run than the
// first unfinished one means the journal and the sweep order disagree.
func (ck *sweepCheckpoint) begin(key runKey) (*controller.Checkpoint, error) {
	if ck.partialKey != nil && *ck.partialKey != key {
		return nil, corruptErr(ck.store.Dir(),
			fmt.Errorf("journal holds progress for run %+v but the sweep is at %+v", *ck.partialKey, key))
	}
	if ck.partial != nil && len(ck.partial.Res.Epochs) > 0 {
		return ck.partial, nil
	}
	k := key
	ck.partialKey, ck.partial = &k, controller.NewCheckpoint()
	return nil, nil
}

// sink returns the CheckpointSink of the closed-loop run for key: commit
// the epoch record durably, advance the folded state, snapshot on the
// period. The crash hook fires after the commit is durable — exactly the
// point where killing the process must lose nothing.
func (ck *sweepCheckpoint) sink(key runKey) controller.CheckpointSink {
	if ck == nil {
		return nil
	}
	return func(d *controller.EpochDelta) error {
		if err := ck.commit(&journalRecord{Epoch: &epochRecord{Key: key, Delta: d}}); err != nil {
			return err
		}
		if err := ck.partial.Fold(d); err != nil {
			return err
		}
		return ck.maybeSnapshot()
	}
}

// finishRun journals a run completion and retires any partial state.
func (ck *sweepCheckpoint) finishRun(key runKey, sum runSummary) error {
	if ck == nil {
		return nil
	}
	if err := ck.commit(&journalRecord{RunDone: &runDoneRecord{Key: key, Summary: sum}}); err != nil {
		return err
	}
	ck.done[key] = sum
	ck.order = append(ck.order, key)
	if ck.partialKey != nil && *ck.partialKey == key {
		ck.partialKey, ck.partial = nil, nil
	}
	return ck.maybeSnapshot()
}

// commit encodes and durably appends one record, then fires the crash
// hook.
func (ck *sweepCheckpoint) commit(jr *journalRecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(jr); err != nil {
		return fmt.Errorf("experiments: encoding journal record: %w", err)
	}
	if _, err := ck.store.Commit(buf.Bytes()); err != nil {
		return err
	}
	ck.commits++
	if ck.hook != nil {
		ck.hook(ck.commits)
	}
	return nil
}

// maybeSnapshot compacts recovery state every snapEvery commits.
func (ck *sweepCheckpoint) maybeSnapshot() error {
	if ck.snapEvery <= 0 || ck.commits%ck.snapEvery != 0 {
		return nil
	}
	snap := sweepSnapshot{PartialKey: ck.partialKey, Partial: ck.partial}
	for _, key := range ck.order {
		snap.Done = append(snap.Done, doneEntry{Key: key, Summary: ck.done[key]})
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&snap); err != nil {
		return fmt.Errorf("experiments: encoding snapshot: %w", err)
	}
	return ck.store.Snapshot(buf.Bytes())
}

// Close releases the store.
func (ck *sweepCheckpoint) Close() error {
	if ck == nil {
		return nil
	}
	return ck.store.Close()
}
