package flightrec

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"thermaldc/internal/telemetry"
)

// newTestRecorder returns a recorder over a temp dir with a controllable
// clock that starts far enough from zero that the rate limiter's
// first-bundle bypass works naturally.
func newTestRecorder(t *testing.T, cfg Config) (*Recorder, *time.Time) {
	t.Helper()
	now := time.Unix(1000, 0)
	cfg.Dir = t.TempDir()
	cfg.Now = func() time.Time { return now }
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return r, &now
}

func TestRecordRoundTrip(t *testing.T) {
	r, _ := newTestRecorder(t, Config{})
	b := Bundle{
		Reason:     "ladder-cold",
		Run:        3,
		Epoch:      7,
		Rung:       "cold",
		ErrKind:    "timeout",
		Violations: 2,
		Spans: []telemetry.Span{
			{Kind: telemetry.SpanEpoch, Dur: time.Millisecond, Seq: 41},
		},
		LastSample: &telemetry.EpochSample{Epoch: 7, RewardRate: 12.5},
	}
	path, err := r.Record(b)
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Base(path) != "bundle-00000000-ladder-cold.json" {
		t.Fatalf("bundle path = %s", path)
	}
	got, err := ReadBundle(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Reason != "ladder-cold" || got.Run != 3 || got.Epoch != 7 ||
		got.Rung != "cold" || got.ErrKind != "timeout" || got.Violations != 2 {
		t.Errorf("round trip lost fields: %+v", got)
	}
	if len(got.Spans) != 1 || got.Spans[0].Seq != 41 {
		t.Errorf("spans = %+v", got.Spans)
	}
	if got.LastSample == nil || got.LastSample.RewardRate != 12.5 {
		t.Errorf("last sample = %+v", got.LastSample)
	}
	if got.Time.IsZero() {
		t.Error("Time not stamped")
	}
	if rec, dropped := r.Stats(); rec != 1 || dropped != 0 {
		t.Errorf("stats = %d/%d", rec, dropped)
	}
}

func TestRecordRateLimits(t *testing.T) {
	r, now := newTestRecorder(t, Config{MinInterval: 10 * time.Second})
	if path, err := r.Record(Bundle{Reason: "a"}); err != nil || path == "" {
		t.Fatalf("first record = %q, %v", path, err)
	}
	// Inside the window: dropped without error.
	*now = now.Add(5 * time.Second)
	if path, err := r.Record(Bundle{Reason: "b"}); err != nil || path != "" {
		t.Fatalf("rate-limited record = %q, %v, want empty path", path, err)
	}
	// Past the window: accepted, with the sequence number continuing.
	*now = now.Add(6 * time.Second)
	path, err := r.Record(Bundle{Reason: "c"})
	if err != nil || !strings.Contains(path, "bundle-00000001-c") {
		t.Fatalf("post-window record = %q, %v", path, err)
	}
	if rec, dropped := r.Stats(); rec != 2 || dropped != 1 {
		t.Errorf("stats = %d/%d, want 2/1", rec, dropped)
	}
}

func TestPruneKeepsNewest(t *testing.T) {
	r, now := newTestRecorder(t, Config{MaxBundles: 3, MinInterval: time.Nanosecond})
	for i := 0; i < 5; i++ {
		*now = now.Add(time.Second)
		if _, err := r.Record(Bundle{Reason: "fault"}); err != nil {
			t.Fatal(err)
		}
	}
	paths, err := List(r.cfg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 3 {
		t.Fatalf("retained %d bundles, want 3", len(paths))
	}
	// Oldest-first listing: the survivors are seq 2..4.
	for i, p := range paths {
		want := "bundle-0000000" + string(rune('2'+i))
		if !strings.Contains(p, want) {
			t.Errorf("survivor %d = %s, want %s*", i, p, want)
		}
	}
}

func TestSpanWindowTrims(t *testing.T) {
	r, _ := newTestRecorder(t, Config{SpanWindow: 2})
	spans := []telemetry.Span{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	got := r.SpanWindow(spans)
	if len(got) != 2 || got[0].Seq != 2 || got[1].Seq != 3 {
		t.Fatalf("window = %+v, want the 2 most recent", got)
	}
	if short := r.SpanWindow(spans[:1]); len(short) != 1 {
		t.Fatalf("short snapshot trimmed: %+v", short)
	}
}

func TestNilRecorderNoOps(t *testing.T) {
	var r *Recorder
	if path, err := r.Record(Bundle{Reason: "x"}); err != nil || path != "" {
		t.Fatalf("nil Record = %q, %v", path, err)
	}
	if rec, dropped := r.Stats(); rec != 0 || dropped != 0 {
		t.Fatal("nil Stats not zero")
	}
	if r.SpanWindow([]telemetry.Span{{}}) != nil {
		t.Fatal("nil SpanWindow not nil")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty dir accepted")
	}
	// Defaults fill in.
	r, err := New(Config{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.MaxBundles != DefaultMaxBundles || r.cfg.MinInterval != DefaultMinInterval ||
		r.cfg.SpanWindow != DefaultSpanWindow || r.cfg.Now == nil {
		t.Fatalf("defaults not applied: %+v", r.cfg)
	}
}

func TestReadBundleRejectsJunk(t *testing.T) {
	dir := t.TempDir()
	junk := filepath.Join(dir, "junk.json")
	if err := os.WriteFile(junk, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(junk); err == nil {
		t.Fatal("junk bundle accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBundle(empty); err == nil || !strings.Contains(err.Error(), "no reason") {
		t.Fatalf("reason-less bundle: %v", err)
	}
	if _, err := ReadBundle(filepath.Join(dir, "missing.json")); err == nil {
		t.Fatal("missing bundle accepted")
	}
}

func TestSanitizeReason(t *testing.T) {
	for in, want := range map[string]string{
		"ladder-cold":   "ladder-cold",
		"solve error/7": "solve_error_7",
		"":              "unknown",
	} {
		if got := sanitizeReason(in); got != want {
			t.Errorf("sanitizeReason(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestListMissingDir(t *testing.T) {
	if _, err := List(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Fatal("missing dir accepted")
	}
}
