package telemetry

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// tracedWork records a small but structurally real span set: two runs,
// an epoch containing a zone solve on another track.
func tracedWork(t testing.TB) *Tracer {
	t.Helper()
	tr := NewTracer(16)
	rec := &Recorder{Trace: tr}
	rec.NextRun()
	e := tr.Begin()
	tr.EndOnTrack(tr.Begin(), SpanZoneSolve, 2, 2, 11, 0)
	tr.End(tr.Begin(), SpanLPSolve, 0, 5, 0)
	tr.End(e, SpanEpoch, 0, 0, 0)
	rec.NextRun()
	tr.End(tr.Begin(), SpanEpoch, 1, 0, 0)
	return tr
}

func TestChromeRoundTripAndLint(t *testing.T) {
	tr := tracedWork(t)
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if err := ct.Lint(); err != nil {
		t.Fatalf("fresh export fails its own lint: %v", err)
	}
	if len(ct.TraceEvents) != 4 {
		t.Fatalf("got %d events, want 4", len(ct.TraceEvents))
	}
	if ct.DisplayTimeUnit != "ms" || ct.Metadata["tool"] != "tapo" {
		t.Errorf("trace header = %q / %v", ct.DisplayTimeUnit, ct.Metadata)
	}
	zone := ct.TraceEvents[0]
	if zone.Name != "zone-solve" || zone.TID != 2 || zone.PID != 1 || zone.Args.Pivots != 11 {
		t.Errorf("zone event = %+v", zone)
	}
	if last := ct.TraceEvents[3]; last.PID != 2 {
		t.Errorf("second-run event pid = %d, want 2", last.PID)
	}
	// ts is wall-clock µs: the epoch event must land near the tracer's
	// wall start, not near zero.
	wantTS := float64(tr.WallStart().UnixNano()) / 1e3
	if got := ct.TraceEvents[0].TS; got < wantTS || got > wantTS+60e6 {
		t.Errorf("ts = %g, want within a minute after %g", got, wantTS)
	}
	// The zone solve must nest inside its epoch window (the format's
	// containment-as-parentage rule).
	epoch := ct.TraceEvents[2]
	if zone.TS < epoch.TS || zone.TS+zone.Dur > epoch.TS+epoch.Dur {
		t.Errorf("zone [%g,+%g] escapes epoch [%g,+%g]", zone.TS, zone.Dur, epoch.TS, epoch.Dur)
	}
}

func TestWriteChromeNilTracer(t *testing.T) {
	var tr *Tracer
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	ct, err := ReadChromeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(ct.TraceEvents) != 0 {
		t.Fatalf("nil tracer exported %d events", len(ct.TraceEvents))
	}
	if err := ct.Lint(); err == nil {
		t.Fatal("empty trace passed lint")
	}
}

func TestReadChromeTraceRejectsTrailingData(t *testing.T) {
	if _, err := ReadChromeTrace(strings.NewReader(`{"traceEvents":[]}{"x":1}`)); err == nil {
		t.Fatal("trailing data accepted")
	}
	if _, err := ReadChromeTrace(strings.NewReader(`not json`)); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestChromeLintRejections(t *testing.T) {
	good := func() *ChromeTrace {
		return ChromeTraceFromSpans([]Span{
			{Kind: SpanEpoch, Start: 0, Dur: time.Millisecond, Seq: 0},
			{Kind: SpanLPSolve, Start: 0, Dur: time.Microsecond, Pivots: 3, Seq: 1},
		}, time.Unix(1000, 0))
	}
	if err := good().Lint(); err != nil {
		t.Fatalf("baseline trace fails lint: %v", err)
	}
	for _, tc := range []struct {
		name    string
		mutate  func(ct *ChromeTrace)
		wantSub string
	}{
		{"wrong phase", func(ct *ChromeTrace) { ct.TraceEvents[0].Ph = "B" }, "phase"},
		{"wrong category", func(ct *ChromeTrace) { ct.TraceEvents[0].Cat = "other" }, "category"},
		{"unknown kind", func(ct *ChromeTrace) { ct.TraceEvents[0].Args.Kind = 99 }, "unknown span kind"},
		{"name mismatch", func(ct *ChromeTrace) { ct.TraceEvents[0].Name = "rung" }, "does not match kind"},
		{"negative ts", func(ct *ChromeTrace) { ct.TraceEvents[0].TS = -1 }, "ts"},
		{"negative dur", func(ct *ChromeTrace) { ct.TraceEvents[0].Dur = -1 }, "dur"},
		{"negative pid", func(ct *ChromeTrace) { ct.TraceEvents[0].PID = -1 }, "pid"},
		{"negative pivots", func(ct *ChromeTrace) { ct.TraceEvents[1].Args.Pivots = -1 }, "pivots"},
		{"seq out of order", func(ct *ChromeTrace) { ct.TraceEvents[1].Args.Seq = 0 }, "not increasing"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ct := good()
			tc.mutate(ct)
			err := ct.Lint()
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("err = %v, want it to mention %q", err, tc.wantSub)
			}
		})
	}
}
