package experiments

import (
	"bytes"
	"encoding/gob"
	"errors"
	"path/filepath"
	"testing"

	"thermaldc/internal/controller"
	"thermaldc/internal/persist"
)

// TestResumeRejectsBadEpochRecords writes journals whose one record is
// CRC-valid but decodes to an epoch delta the fold cannot take: rung 99,
// or no delta at all. Replaying it must fail the resume as
// persist.KindCorrupt instead of panicking (rung 99 used to index the
// rung tally out of range).
func TestResumeRejectsBadEpochRecords(t *testing.T) {
	for _, tc := range []struct {
		name  string
		delta *controller.EpochDelta
	}{
		{"rung 99", &controller.EpochDelta{Report: controller.EpochReport{Resolved: true, Rung: 99}}},
		{"no delta", nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultDegradedConfig(7)
			cfg.NNodes, cfg.Trials, cfg.Horizon, cfg.Epoch = 10, 1, 30, 10
			cfg.Levels = []DegradedLevel{{}}
			cfg.CheckpointDir = filepath.Join(t.TempDir(), "ck")

			store, err := persist.CreateStore(cfg.CheckpointDir, cfg.runTag())
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			rec := journalRecord{Epoch: &epochRecord{Delta: tc.delta}}
			if err := gob.NewEncoder(&buf).Encode(&rec); err != nil {
				t.Fatal(err)
			}
			if _, err := store.Commit(buf.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := store.Close(); err != nil {
				t.Fatal(err)
			}

			cfg.Resume = true
			_, err = DegradedSweep(cfg)
			var pe *persist.Error
			if !errors.As(err, &pe) || pe.Kind != persist.KindCorrupt {
				t.Fatalf("resume over the record returned %v, want KindCorrupt", err)
			}
		})
	}
}
