package experiments

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"thermaldc/internal/controller"
	"thermaldc/internal/persist"
)

// replayConfig is a one-level, one-trial sweep small enough to run while
// seeding the replay fuzz corpus.
func replayConfig(t testing.TB) DegradedConfig {
	cfg := DefaultDegradedConfig(7)
	cfg.NNodes, cfg.Trials, cfg.Horizon, cfg.Epoch = 10, 1, 30, 10
	cfg.Levels = []DegradedLevel{{}}
	cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")
	return cfg
}

// writeJournal writes the sweep journal of cfg with one CRC-valid record
// per payload, as the live sweep would have committed them.
func writeJournal(t testing.TB, cfg DegradedConfig, payloads ...[]byte) {
	t.Helper()
	cfg.Resume = false
	ck, err := openSweepCheckpoint(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range payloads {
		if err := ck.journal.Append(uint64(i+1), p); err != nil {
			t.Fatal(err)
		}
	}
	if err := ck.journal.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
}

// encodeRecord gob-encodes one journal record.
func encodeRecord(t testing.TB, jr *journalRecord) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(jr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// badRecord is a named journal record payload.
type badRecord struct {
	name    string
	payload []byte
}

// badEpochRecords are CRC-valid records whose delta the fold cannot take:
// rung 99 (it used to index the rung tally out of range) and no delta.
func badEpochRecords(t testing.TB) []badRecord {
	return []badRecord{
		{"rung 99", encodeRecord(t, &journalRecord{Epoch: &epochRecord{
			Delta: &controller.EpochDelta{Report: controller.EpochReport{Resolved: true, Rung: 99}}}})},
		{"no delta", encodeRecord(t, &journalRecord{Epoch: &epochRecord{}})},
	}
}

// TestResumeRejectsBadEpochRecords writes journals whose one record is a
// bad epoch record. Replaying it must fail the resume as
// persist.KindCorrupt instead of panicking.
func TestResumeRejectsBadEpochRecords(t *testing.T) {
	for _, tc := range badEpochRecords(t) {
		t.Run(tc.name, func(t *testing.T) {
			cfg := replayConfig(t)
			writeJournal(t, cfg, tc.payload)
			cfg.Resume = true
			_, err := DegradedSweep(cfg)
			var pe *persist.Error
			if !errors.As(err, &pe) || pe.Kind != persist.KindCorrupt {
				t.Fatalf("resume over the record returned %v, want KindCorrupt", err)
			}
		})
	}
}

// TestResumeRejectsV3Journal: the v4 layout renumbered the ladder rungs,
// so a checkpoint directory journaled under the v3 run tag must be
// refused as persist.KindMismatch instead of having its rungs misread.
func TestResumeRejectsV3Journal(t *testing.T) {
	cfg := replayConfig(t)
	if err := os.MkdirAll(cfg.CheckpointDir, 0o755); err != nil {
		t.Fatal(err)
	}
	j, err := persist.CreateJournal(filepath.Join(cfg.CheckpointDir, journalFile), cfg.runTagAt(3))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(1, encodeRecord(t, &journalRecord{Epoch: &epochRecord{
		Delta: &controller.EpochDelta{Report: controller.EpochReport{Resolved: true, Rung: 2}}}})); err != nil {
		t.Fatal(err)
	}
	if err := j.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	cfg.Resume = true
	_, err = DegradedSweep(cfg)
	var pe *persist.Error
	if !errors.As(err, &pe) || pe.Kind != persist.KindMismatch {
		t.Fatalf("resume over a v3 journal returned %v, want KindMismatch", err)
	}
}

// joinPayloads frames payloads as the FuzzSweepReplay input: each one is
// a uvarint length followed by its bytes.
func joinPayloads(payloads [][]byte) []byte {
	var out []byte
	for _, p := range payloads {
		out = binary.AppendUvarint(out, uint64(len(p)))
		out = append(out, p...)
	}
	return out
}

// splitPayloads inverts joinPayloads on any input: a length that runs
// past the end takes the rest of the data.
func splitPayloads(data []byte) [][]byte {
	var out [][]byte
	for len(data) > 0 {
		n, k := binary.Uvarint(data)
		if k <= 0 {
			return append(out, data)
		}
		data = data[k:]
		if n > uint64(len(data)) {
			n = uint64(len(data))
		}
		out = append(out, data[:n])
		data = data[n:]
	}
	return out
}

// FuzzSweepReplay writes a journal of CRC-valid records with fuzzed
// payloads and opens it for resume. The journal framing is already
// trusted here (FuzzJournalDecode covers it), so this exercises the
// sweep's own recovery decoder: gob decoding, the record fold and
// controller.Checkpoint.Fold. Each input must yield recovered state or a
// persist.KindCorrupt error, never a panic, and recovered state must be
// one the sweep can continue from.
func FuzzSweepReplay(f *testing.F) {
	for _, tc := range badEpochRecords(f) {
		f.Add(joinPayloads([][]byte{tc.payload}))
	}
	// A valid prefix of a real sweep: its first closed-loop run is two
	// epochs in, with one epoch left to go.
	cfg := replayConfig(f)
	if _, err := DegradedSweep(cfg); err != nil {
		f.Fatal(err)
	}
	j, recs, err := persist.OpenJournal(filepath.Join(cfg.CheckpointDir, journalFile), cfg.runTag())
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	var payloads [][]byte
	for _, r := range recs[:2] {
		payloads = append(payloads, r.Payload)
	}
	f.Add(joinPayloads(payloads))

	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := replayConfig(t)
		writeJournal(t, cfg, splitPayloads(data)...)
		cfg.Resume = true
		ck, err := openSweepCheckpoint(cfg)
		if err != nil {
			var pe *persist.Error
			if !errors.As(err, &pe) || pe.Kind != persist.KindCorrupt {
				t.Fatalf("replay returned %v, want recovered state or KindCorrupt", err)
			}
			return
		}
		defer ck.Close()
		if key := ck.partialKey; key != nil {
			if _, isDone := ck.done[*key]; isDone || key.Open {
				t.Fatalf("recovered progress for run %+v, which is open-loop or finished", *key)
			}
			if len(ck.partial.Res.Epochs) == 0 {
				t.Fatalf("recovered progress for run %+v holds no epoch", *key)
			}
		}
	})
}
