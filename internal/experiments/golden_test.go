package experiments_test

import (
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"thermaldc/internal/experiments"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the golden files from the current output")

// TestFig6SmallGolden pins the rendered Figure-6 output of a reduced-scale
// run byte for byte. The fault/controller subsystem must be invisible when
// faults are disabled: any drift in the assignment pipeline, simulator or
// rendering shows up here as a diff.
func TestFig6SmallGolden(t *testing.T) {
	cfg := experiments.DefaultFig6Config()
	cfg.Trials = 2
	cfg.NNodes = 10
	cfg.NCracs = 2
	cfg.SimHorizon = 30
	res, err := experiments.Figure6(context.Background(), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, filepath.Join("testdata", "fig6_small.golden"), res.Render())
}

// TestFig6FullGolden re-runs the paper-scale Figure-6 experiment and
// compares it byte for byte against the committed fig6_full.txt. It takes
// ~10 minutes on one core, so it only runs when TAPO_GOLDEN_FULL is set
// (the fast small-scale golden above covers the same code paths).
func TestFig6FullGolden(t *testing.T) {
	if os.Getenv("TAPO_GOLDEN_FULL") == "" {
		t.Skip("set TAPO_GOLDEN_FULL=1 to run the paper-scale golden comparison")
	}
	res, err := experiments.Figure6(context.Background(), experiments.DefaultFig6Config(), nil)
	if err != nil {
		t.Fatal(err)
	}
	// fig6_full.txt was captured from `tapo fig6`, whose fmt.Println appends
	// one newline to Render()'s output; mirror that here.
	compareGolden(t, filepath.Join("..", "..", "fig6_full.txt"), res.Render()+"\n")
}

func compareGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s", path)
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update-golden to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output drifted from %s\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
