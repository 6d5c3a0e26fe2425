package main

import (
	"context"
	"fmt"
	"os"
	"testing"
)

// The run* helpers parse their own flags, so each can be exercised
// directly at a tiny scale; output goes to stdout, which `go test`
// captures.

func TestRunTable1(t *testing.T) {
	if err := runTable1([]string{"-static", "0.25"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig345(t *testing.T) {
	if err := runFig345(nil); err != nil {
		t.Fatal(err)
	}
	csv := t.TempDir() + "/f345.csv"
	if err := runFig345([]string{"-csv", csv}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(csv); err != nil {
		t.Fatalf("CSV not written: %v", err)
	}
}

func TestRunBoundsTiny(t *testing.T) {
	if err := runBounds([]string{"-nodes", "10", "-cracs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig6Tiny(t *testing.T) {
	if err := runFig6(context.Background(), []string{"-trials", "1", "-nodes", "10", "-cracs", "2", "-quiet"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepTiny(t *testing.T) {
	if err := runSweep(context.Background(), []string{"-kind", "psi", "-values", "25,50", "-trials", "1", "-nodes", "10", "-cracs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSweepUnknownKind(t *testing.T) {
	// -values supplies the points itself, so the kind must be rejected on
	// its own, not by finding no default values for it.
	for _, args := range [][]string{{"-kind", "nope"}, {"-kind", "bogus", "-values", "0.5"}} {
		err := runSweep(context.Background(), args)
		if want := fmt.Sprintf("unknown sweep kind %q", args[1]); err == nil || err.Error() != want {
			t.Errorf("runSweep(%q) = %v, want %s", args, err, want)
		}
	}
}

func TestRunAblationTiny(t *testing.T) {
	if err := runAblation(context.Background(), []string{"-trials", "1", "-nodes", "10", "-cracs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunSimulateTiny(t *testing.T) {
	if err := runSimulate(context.Background(), []string{"-trials", "1", "-nodes", "10", "-cracs", "2", "-horizon", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMinPowerTiny(t *testing.T) {
	if err := runMinPower([]string{"-nodes", "10", "-cracs", "2", "-floors", "0.5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunPoliciesTiny(t *testing.T) {
	if err := runPolicies(context.Background(), []string{"-trials", "1", "-nodes", "10", "-cracs", "2", "-horizon", "10"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDynamicTiny(t *testing.T) {
	if err := runDynamic(context.Background(), []string{"-nodes", "10", "-cracs", "2", "-horizon", "30", "-epoch", "15", "-period", "30"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunThermalTiny(t *testing.T) {
	if err := runThermal([]string{"-nodes", "10", "-cracs", "2"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDegradedTiny(t *testing.T) {
	if err := runDegraded(context.Background(), []string{"-trials", "1", "-nodes", "10", "-cracs", "2",
		"-horizon", "20", "-epoch", "10", "-faults", "0:0,2:1"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunDegradedCheckpointFlags(t *testing.T) {
	scale := []string{"-trials", "1", "-nodes", "10", "-cracs", "2",
		"-horizon", "20", "-epoch", "10", "-faults", "0:0,2:1"}
	dir := t.TempDir() + "/ck"
	if err := runDegraded(context.Background(), append([]string{"-checkpoint", dir}, scale...)); err != nil {
		t.Fatal(err)
	}
	// Resuming a finished sweep replays the journal and re-renders.
	if err := runDegraded(context.Background(), append([]string{"-resume", dir}, scale...)); err != nil {
		t.Fatal(err)
	}
	if err := runDegraded(context.Background(), []string{"-checkpoint", "a", "-resume", "b"}); err == nil {
		t.Fatal("conflicting -checkpoint/-resume accepted")
	}
	if err := runDegraded(context.Background(), []string{"-crash-after", "3"}); err == nil {
		t.Fatal("-crash-after without -checkpoint accepted")
	}
}

func TestRunDegradedMetricsOutAtomic(t *testing.T) {
	path := t.TempDir() + "/series.jsonl"
	if err := runDegraded(context.Background(), []string{"-trials", "1", "-nodes", "10", "-cracs", "2",
		"-horizon", "20", "-epoch", "10", "-faults", "0:0", "-metrics-out", path}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("metrics series not written: %v", err)
	}
	// A failing run must not leave a torn file under the final name.
	bad := t.TempDir() + "/bad.jsonl"
	if err := runDegraded(context.Background(), []string{"-trials", "0", "-metrics-out", bad}); err == nil {
		t.Fatal("zero-trial sweep succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed run left %s behind (err=%v)", bad, err)
	}
}

func TestParseLevels(t *testing.T) {
	levels, err := parseLevels("0:0, 2:1,4:2")
	if err != nil || len(levels) != 3 {
		t.Fatalf("parseLevels = %v, %v", levels, err)
	}
	if levels[1].NodeFailures != 2 || levels[1].CracDegradations != 1 {
		t.Fatalf("level 1 = %+v", levels[1])
	}
	for _, bad := range []string{"", "2", "2:x", "x:1", "-1:0", "2:-1", "2:1:3"} {
		if _, err := parseLevels(bad); err == nil {
			t.Errorf("parseLevels(%q) accepted", bad)
		}
	}
}

// FuzzParseLevels checks the -faults parser at its trust boundary: every
// input either errors or yields non-negative counts.
func FuzzParseLevels(f *testing.F) {
	for _, s := range []string{"0:0,2:0,2:1,4:1,6:2", "0:0, 2:1,4:2", "", "2", "2:x", "-1:0", "2:1:3", "+3:0", "-0:0", ",", "9999999999999999999:0"} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		levels, err := parseLevels(s)
		if err != nil {
			return
		}
		if len(levels) == 0 {
			t.Fatalf("parseLevels(%q) returned no levels and no error", s)
		}
		for _, lvl := range levels {
			if lvl.NodeFailures < 0 || lvl.CracDegradations < 0 {
				t.Fatalf("parseLevels(%q) = %+v: negative count", s, levels)
			}
		}
	})
}

func TestParseValues(t *testing.T) {
	vs, err := parseValues("1, 2.5,3")
	if err != nil || len(vs) != 3 || vs[1] != 2.5 {
		t.Fatalf("parseValues = %v, %v", vs, err)
	}
	if _, err := parseValues("1,x"); err == nil {
		t.Fatal("bad value accepted")
	}
}
