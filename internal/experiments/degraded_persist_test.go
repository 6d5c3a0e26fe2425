package experiments_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"thermaldc/internal/experiments"
	"thermaldc/internal/persist"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/telemetry"
)

// persistSweepConfig is a small sweep with enough epochs per closed run
// to make mid-run kill points meaningful.
func persistSweepConfig() experiments.DegradedConfig {
	cfg := experiments.DefaultDegradedConfig(7)
	cfg.NNodes = 10
	cfg.Trials = 1
	cfg.Horizon = 30
	cfg.Epoch = 10
	cfg.Levels = []experiments.DegradedLevel{{NodeFailures: 0, CracDegradations: 0}, {NodeFailures: 2, CracDegradations: 1}}
	return cfg
}

// crashAt panics out of the sweep after the k-th durable commit; the
// journal file is left exactly as a SIGKILL at that instant would leave
// it, because every commit is fsynced before the hook fires.
type crashAt struct{ k int }

func (c crashAt) hook(commits int) {
	if commits == c.k {
		panic(c)
	}
}

func runWithCrash(cfg experiments.DegradedConfig, k int) (crashed bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(crashAt); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	cfg.CommitHook = crashAt{k}.hook
	_, err = experiments.DegradedSweep(cfg)
	return false, err
}

// TestDegradedSweepCrashResumeMatrix is the sweep-level exact-resume
// property: for every journal commit k, a sweep killed right after commit
// k and resumed from the directory renders a byte-identical table to an
// uninterrupted, checkpoint-free sweep. Resume replays the journal alone:
// each killed directory also gets a snapshot.snap of arbitrary bytes, as
// a directory written by an older, snapshotting build may hold, and the
// resume must never read it.
func TestDegradedSweepCrashResumeMatrix(t *testing.T) {
	if testing.Short() {
		t.Skip("crash matrix re-runs the sweep once per commit")
	}
	base := persistSweepConfig()

	clean, err := experiments.DegradedSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	golden := clean.Render()

	// A checkpointed but uninterrupted sweep must not perturb results,
	// and tells us the total commit count for the kill matrix.
	commits := 0
	full := base
	full.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	full.CommitHook = func(n int) { commits = n }
	res, err := experiments.DegradedSweep(full)
	if err != nil {
		t.Fatal(err)
	}
	if res.Render() != golden {
		t.Fatalf("checkpointing changed the rendered table:\n%s\nvs\n%s", res.Render(), golden)
	}
	if commits < 10 {
		t.Fatalf("sweep too small for a meaningful matrix: %d commits", commits)
	}

	for k := 1; k <= commits; k++ {
		k := k
		t.Run(fmt.Sprintf("kill-at-commit-%d", k), func(t *testing.T) {
			cfg := base
			cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
			crashed, err := runWithCrash(cfg, k)
			if err != nil {
				t.Fatalf("pre-crash sweep error: %v", err)
			}
			if !crashed {
				t.Fatalf("sweep finished before commit %d", k)
			}
			snap := filepath.Join(cfg.CheckpointDir, "snapshot.snap")
			if err := os.WriteFile(snap, []byte("not a snapshot"), 0o644); err != nil {
				t.Fatal(err)
			}
			cfg.CommitHook = nil
			cfg.Resume = true
			res, err := experiments.DegradedSweep(cfg)
			if err != nil {
				t.Fatalf("resume: %v", err)
			}
			if got := res.Render(); got != golden {
				t.Errorf("resumed table diverges from the uninterrupted run:\n%s\nwant:\n%s", got, golden)
			}
		})
	}
}

// seriesRuns runs the sweep with a series sink and returns the (run,
// epoch) pair of every row it writes; crashAfter > 0 kills the sweep after
// that durable commit, as `tapo degraded -crash-after` does.
func seriesRuns(t *testing.T, cfg experiments.DegradedConfig, crashAfter int) [][2]int {
	t.Helper()
	var buf bytes.Buffer
	cfg.Recorder = &telemetry.Recorder{Series: telemetry.NewJSONLWriter(&buf)}
	if crashAfter > 0 {
		crashed, err := runWithCrash(cfg, crashAfter)
		if err != nil || !crashed {
			t.Fatalf("pre-crash sweep: crashed=%v err=%v", crashed, err)
		}
	} else if _, err := experiments.DegradedSweep(cfg); err != nil {
		t.Fatal(err)
	}
	var rows [][2]int
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var s telemetry.EpochSample
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatal(err)
		}
		rows = append(rows, [2]int{s.Run, s.Epoch})
	}
	return rows
}

// TestDegradedSweepResumeKeepsRunNumbers: a sweep killed mid-run and
// resumed must stamp its remaining series rows with the run numbers the
// uninterrupted sweep gives them, so the two halves of a crashed sweep's
// series concatenate to the uninterrupted series.
func TestDegradedSweepResumeKeepsRunNumbers(t *testing.T) {
	base := persistSweepConfig()
	full := seriesRuns(t, base, 0)
	if n := len(full); n == 0 || full[n-1][0] != 2*len(base.Levels) {
		t.Fatalf("uninterrupted series rows %v, want the last from run %d", full, 2*len(base.Levels))
	}

	cfg := base
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	before := seriesRuns(t, cfg, 5)
	cfg.Resume = true
	after := seriesRuns(t, cfg, 0)
	if len(after) == 0 {
		t.Fatal("resumed sweep wrote no series rows")
	}
	if got := append(before, after...); !reflect.DeepEqual(got, full) {
		t.Errorf("crashed %v + resumed %v series rows (run, epoch), want %v", before, after, full)
	}
}

// TestDegradedSweepResumeTornTail appends a torn record to the journal of
// a killed sweep; resume must truncate it and still render the golden
// table (over-truncation recomputes the lost epoch deterministically).
func TestDegradedSweepResumeTornTail(t *testing.T) {
	base := persistSweepConfig()
	clean, err := experiments.DegradedSweep(base)
	if err != nil {
		t.Fatal(err)
	}
	golden := clean.Render()

	cfg := base
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	crashed, err := runWithCrash(cfg, 5)
	if err != nil || !crashed {
		t.Fatalf("pre-crash sweep: crashed=%v err=%v", crashed, err)
	}
	jpath := filepath.Join(cfg.CheckpointDir, "journal.wal")
	f, err := os.OpenFile(jpath, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Half a record header: the classic torn write.
	if _, err := f.Write([]byte{9, 9, 9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	cfg.CommitHook = nil
	cfg.Resume = true
	res, err := experiments.DegradedSweep(cfg)
	if err != nil {
		t.Fatalf("resume over torn tail: %v", err)
	}
	if got := res.Render(); got != golden {
		t.Errorf("torn-tail resume diverges:\n%s\nwant:\n%s", got, golden)
	}
}

// TestDegradedSweepResumeRejectsCorruption flips a bit in a non-tail
// journal record: resume must fail with a typed persist error, classified
// into the solver-error taxonomy, and never silently replay.
func TestDegradedSweepResumeRejectsCorruption(t *testing.T) {
	cfg := persistSweepConfig()
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	crashed, err := runWithCrash(cfg, 6)
	if err != nil || !crashed {
		t.Fatalf("pre-crash sweep: crashed=%v err=%v", crashed, err)
	}
	jpath := filepath.Join(cfg.CheckpointDir, "journal.wal")
	data, err := os.ReadFile(jpath)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x10
	if err := os.WriteFile(jpath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.CommitHook = nil
	cfg.Resume = true
	_, err = experiments.DegradedSweep(cfg)
	if err == nil {
		t.Fatal("resume silently accepted a corrupted journal")
	}
	var pe *persist.Error
	if !errors.As(err, &pe) {
		t.Fatalf("error %v is not a persist.Error", err)
	}
	if solvererr.KindOf(err) != solvererr.Persist {
		t.Errorf("error classifies as %v, want Persist", solvererr.KindOf(err))
	}
}

// TestDegradedSweepResumeRejectsConfigChange: resuming under different
// sweep parameters must fail with a run-tag mismatch.
func TestDegradedSweepResumeRejectsConfigChange(t *testing.T) {
	cfg := persistSweepConfig()
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	crashed, err := runWithCrash(cfg, 4)
	if err != nil || !crashed {
		t.Fatalf("pre-crash sweep: crashed=%v err=%v", crashed, err)
	}
	cfg.CommitHook = nil
	cfg.Resume = true
	cfg.Seed++ // a different experiment entirely
	_, err = experiments.DegradedSweep(cfg)
	var pe *persist.Error
	if !errors.As(err, &pe) || pe.Kind != persist.KindMismatch {
		t.Fatalf("resume under a changed config returned %v, want KindMismatch", err)
	}
}

// TestDegradedSweepResumeWithoutDir: Resume without a directory is a
// configuration error, not a silent fresh start.
func TestDegradedSweepResumeWithoutDir(t *testing.T) {
	cfg := persistSweepConfig()
	cfg.Resume = true
	if _, err := experiments.DegradedSweep(cfg); err == nil {
		t.Fatal("resume without a checkpoint directory succeeded")
	}
}
