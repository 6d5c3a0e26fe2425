package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/gob"
	"fmt"
	"os"
	"path/filepath"

	"thermaldc/internal/controller"
	"thermaldc/internal/linprog"
	"thermaldc/internal/persist"
)

// This file persists the degraded-operation sweep through internal/persist:
// every completed closed-loop epoch and every finished run is one durable
// record of the journal DIR/journal.wal, so a killed sweep resumes at the
// exact epoch it died in. The journal is the whole checkpoint: the live
// sweep only appends to it, and resume replays it from the first record.
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

// runKey identifies one run of the sweep.
type runKey struct {
	// Level indexes DegradedConfig.Levels; Trial counts within the level.
	Level, Trial int
	// Open distinguishes the open-loop run from the closed-loop one.
	Open bool
}

// runSummary is a finished run reduced to the row-accumulation inputs.
type runSummary struct {
	RewardRate          float64
	Lost                int
	Resolves, Fallbacks int
	RungCounts          [controller.NumRungs]int
	LP                  linprog.Stats
	MaxPowerExcess      float64
	MaxInletExcess      float64
}

func summarize(r *controller.Result) runSummary {
	return runSummary{
		RewardRate:     r.RewardRate,
		Lost:           r.Lost,
		Resolves:       r.Resolves,
		Fallbacks:      r.Fallbacks,
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

// runTagVersion versions the journal's record layout and meaning; bump it
// whenever either changes. v4 renumbered the ladder rungs (the retry rung
// is gone), so a v3 journal's Rung and RungCounts would be misread. v5
// journals each plan's Stage 3 by core group beside its dense TC, in
// place of the per-core utilizations.
const runTagVersion = 5

// runTag hashes every configuration field that influences results, so a
// checkpoint directory can never be resumed under different parameters
// (persist.KindMismatch instead of a silently diverging run). Telemetry
// hooks are excluded: they never change results.
func (cfg DegradedConfig) runTag() persist.Tag { return cfg.runTagAt(runTagVersion) }

// runTagAt is runTag under journal layout version v.
func (cfg DegradedConfig) runTagAt(v int) persist.Tag {
	opts := cfg.Options
	opts.Recorder = nil
	opts.Search.Trace = nil
	h := sha256.New()
	fmt.Fprintf(h, "degraded|v%d|%d|%d|%v|%v|%d|%v|%v|%d|%+v|%+v|%v", v,
		cfg.NCracs, cfg.NNodes, cfg.StaticShare, cfg.Vprop, cfg.Seed,
		cfg.Horizon, cfg.Epoch, cfg.Trials, cfg.Levels, opts, cfg.SolveTimeout)
	var tag persist.Tag
	h.Sum(tag[:0])
	return tag
}

// journalFile is the journal's name inside the checkpoint directory.
const journalFile = "journal.wal"

// sweepCheckpoint drives the journal for one sweep. A nil *sweepCheckpoint
// is valid and inert, so the sweep body is uncluttered by enablement
// checks on the hot path.
type sweepCheckpoint struct {
	dir     string
	journal *persist.Journal
	hook    func(commits int)
	commits int

	// done, partialKey and partial are what replay recovered: the
	// finished runs' summaries and the interrupted closed-loop run's
	// folded checkpoint, which begin hands out once. The live sweep only
	// appends to the journal and never adds to them.
	done       map[runKey]runSummary
	partialKey *runKey
	partial    *controller.Checkpoint
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
		dir:  cfg.CheckpointDir,
		hook: cfg.CommitHook,
		done: make(map[runKey]runSummary),
	}
	path := filepath.Join(cfg.CheckpointDir, journalFile)
	tag := cfg.runTag()
	if !cfg.Resume {
		if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
			return nil, &persist.Error{Op: "checkpoint create", Kind: persist.KindIO, Path: cfg.CheckpointDir, Cause: err}
		}
		j, err := persist.CreateJournal(path, tag)
		if err != nil {
			return nil, err
		}
		ck.journal = j
		return ck, nil
	}
	j, recs, err := persist.OpenJournal(path, tag)
	if err != nil {
		return nil, err
	}
	ck.journal = j
	for _, r := range recs {
		var jr journalRecord
		if err := gob.NewDecoder(bytes.NewReader(r.Payload)).Decode(&jr); err != nil {
			j.Close()
			return nil, corruptErr(cfg.CheckpointDir, fmt.Errorf("decoding record %d: %w", r.Seq, err))
		}
		if err := ck.fold(&jr); err != nil {
			j.Close()
			return nil, corruptErr(cfg.CheckpointDir, fmt.Errorf("replaying record %d: %w", r.Seq, err))
		}
	}
	return ck, nil
}

// fold replays one journal record into the recovered sweep state.
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
		if jr.Epoch.Delta == nil {
			return fmt.Errorf("epoch record for %+v carries no delta", key)
		}
		if ck.partialKey == nil {
			k := key
			ck.partialKey, ck.partial = &k, controller.NewCheckpoint()
		} else if *ck.partialKey != key {
			return fmt.Errorf("epoch record for %+v while %+v is unfinished", key, *ck.partialKey)
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

// begin returns the checkpoint the closed-loop run for key resumes from:
// the recovered partial, handed out once, or nil for a fresh run. A
// recovered partial belonging to a different run than the first
// unfinished one means the journal and the sweep order disagree.
func (ck *sweepCheckpoint) begin(key runKey) (*controller.Checkpoint, error) {
	if ck.partialKey == nil {
		return nil, nil
	}
	if *ck.partialKey != key {
		return nil, corruptErr(ck.dir,
			fmt.Errorf("journal holds progress for run %+v but the sweep is at %+v", *ck.partialKey, key))
	}
	resume := ck.partial
	ck.partialKey, ck.partial = nil, nil
	return resume, nil
}

// sink returns the CheckpointSink of the closed-loop run for key: commit
// each epoch record durably.
func (ck *sweepCheckpoint) sink(key runKey) controller.CheckpointSink {
	if ck == nil {
		return nil
	}
	return func(d *controller.EpochDelta) error {
		return ck.commit(&journalRecord{Epoch: &epochRecord{Key: key, Delta: d}})
	}
}

// finishRun journals a run completion.
func (ck *sweepCheckpoint) finishRun(key runKey, sum runSummary) error {
	if ck == nil {
		return nil
	}
	return ck.commit(&journalRecord{RunDone: &runDoneRecord{Key: key, Summary: sum}})
}

// commit encodes one record, appends it and makes it durable (fsync), then
// fires the crash hook — exactly the point where killing the process must
// lose nothing.
func (ck *sweepCheckpoint) commit(jr *journalRecord) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(jr); err != nil {
		return fmt.Errorf("experiments: encoding journal record: %w", err)
	}
	if err := ck.journal.Append(ck.journal.LastSeq()+1, buf.Bytes()); err != nil {
		return err
	}
	if err := ck.journal.Commit(); err != nil {
		return err
	}
	ck.commits++
	if ck.hook != nil {
		ck.hook(ck.commits)
	}
	return nil
}

// Close releases the journal.
func (ck *sweepCheckpoint) Close() error {
	if ck == nil {
		return nil
	}
	return ck.journal.Close()
}
