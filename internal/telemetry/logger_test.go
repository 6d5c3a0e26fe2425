package telemetry

import (
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestPlainLoggerByteIdentity: an attribute-free Info line through the
// plain handler must be byte-identical to the fmt.Fprintf(os.Stderr,
// "%s\n", msg) call it replaced — tapo's default output depends on it.
func TestPlainLoggerByteIdentity(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelInfo, false)
	l.Info("wrote results.csv")
	l.Info("trial 3/25 static=0.3 done")
	want := "wrote results.csv\ntrial 3/25 static=0.3 done\n"
	if b.String() != want {
		t.Fatalf("plain output = %q, want %q", b.String(), want)
	}
}

func TestPlainLoggerAttrsAndLevels(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelInfo, false)
	l.Debug("hidden", "k", 1)
	l.Warn("fault applied", "kind", "crac-degrade", "unit", 2)
	if got, want := b.String(), "fault applied kind=crac-degrade unit=2\n"; got != want {
		t.Fatalf("got %q, want %q", got, want)
	}
	if l.Enabled(slog.LevelDebug) || !l.Enabled(slog.LevelWarn) {
		t.Fatalf("Enabled() disagrees with the configured level")
	}
}

func TestJSONLogger(t *testing.T) {
	var b strings.Builder
	l := NewLogger(&b, slog.LevelDebug, true)
	l.Debug("sample", "power_kw", 97.5)
	var rec map[string]any
	if err := json.Unmarshal([]byte(b.String()), &rec); err != nil {
		t.Fatalf("not JSON: %v (%q)", err, b.String())
	}
	if rec["msg"] != "sample" || rec["power_kw"] != 97.5 || rec["level"] != "DEBUG" {
		t.Fatalf("record = %v", rec)
	}
}

func TestNilLoggerIsSafe(t *testing.T) {
	var l *Logger
	l.Debug("x")
	l.Info("x")
	l.Warn("x")
	l.Error("x")
	if l.Enabled(slog.LevelError) {
		t.Fatal("nil logger claims to be enabled")
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug, "info": slog.LevelInfo, "": slog.LevelInfo,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "Error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted garbage")
	}
}

func TestDefaultLoggerSwap(t *testing.T) {
	orig := Default()
	defer SetDefault(orig)
	var b strings.Builder
	SetDefault(NewLogger(&b, slog.LevelInfo, false))
	Default().Info("hello")
	if b.String() != "hello\n" {
		t.Fatalf("default logger output = %q", b.String())
	}
	SetDefault(nil)
	if Default() == nil {
		t.Fatal("SetDefault(nil) left a nil default")
	}
}

func TestRecorderNilAccessors(t *testing.T) {
	var r *Recorder
	if r.Tracer() != nil || r.SeriesSink() != nil {
		t.Fatal("nil recorder handed out components")
	}
	if r.Logger() == nil {
		t.Fatal("nil recorder must fall back to the default logger")
	}
	if r.NextRun() != 0 || r.Run() != 0 {
		t.Fatal("nil recorder counted runs")
	}
	rec := NewRecorder()
	if rec.Tracer() != nil || rec.SeriesSink() != nil {
		t.Fatal("NewRecorder must leave tracing and series export disabled")
	}
}
