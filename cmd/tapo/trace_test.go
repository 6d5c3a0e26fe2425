package main

import (
	"context"
	"os"
	"strings"
	"testing"
)

// degradedScale is the tiny fault sweep every observability test drives.
var degradedScale = []string{"-trials", "1", "-nodes", "10", "-cracs", "2",
	"-horizon", "20", "-epoch", "10", "-faults", "0:0,2:1"}

func TestRunDegradedTraceOutAtomic(t *testing.T) {
	path := t.TempDir() + "/trace.json"
	if err := runDegraded(context.Background(), append([]string{"-trace-out", path}, degradedScale...)); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(path)
	if err != nil || st.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	// The written trace must survive its own lint.
	if err := runTrace([]string{"lint", path}); err != nil {
		t.Fatalf("trace lint rejected a fresh export: %v", err)
	}
	// And the summary mode must digest it too.
	if err := runTrace([]string{"-top", "3", path}); err != nil {
		t.Fatalf("trace summary failed: %v", err)
	}
	// A failing run must not leave a torn trace under the final name.
	bad := t.TempDir() + "/bad.json"
	if err := runDegraded(context.Background(), []string{"-trials", "0", "-trace-out", bad}); err == nil {
		t.Fatal("zero-trial sweep succeeded")
	}
	if _, err := os.Stat(bad); !os.IsNotExist(err) {
		t.Fatalf("failed run left %s behind (err=%v)", bad, err)
	}
}

func TestRunTraceErrors(t *testing.T) {
	if err := runTrace(nil); err == nil {
		t.Fatal("trace with no files accepted")
	}
	if err := runTrace([]string{"lint"}); err == nil {
		t.Fatal("lint with no files accepted")
	}
	if err := runTrace([]string{t.TempDir() + "/missing.json"}); err == nil {
		t.Fatal("missing file accepted")
	}
	junk := t.TempDir() + "/junk.json"
	if err := os.WriteFile(junk, []byte(`{"traceEvents":[{"ph":"M"}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runTrace([]string{"lint", junk}); err == nil || !strings.Contains(err.Error(), "ph") {
		t.Fatalf("malformed trace passed lint: %v", err)
	}
}
