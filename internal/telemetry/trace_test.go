package telemetry

import (
	"testing"
	"time"
)

func TestNilTracerIsFreeAndSafe(t *testing.T) {
	var tr *Tracer
	c := tr.Begin()
	if !c.t.IsZero() {
		t.Fatalf("nil tracer Begin read the clock")
	}
	tr.End(c, SpanEpoch, 0, 0, 0) // must not panic
	if tr.Count() != 0 || tr.Snapshot() != nil {
		t.Fatalf("nil tracer recorded spans")
	}
	// A zero SpanClock handed to an enabled tracer is dropped too (a span
	// begun while tracing was disabled must not record garbage).
	live := NewTracer(4)
	live.End(SpanClock{}, SpanEpoch, 0, 0, 0)
	if live.Count() != 0 {
		t.Fatalf("zero SpanClock recorded a span")
	}
}

func TestTracerRecordsAndWraps(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		c := tr.Begin()
		tr.End(c, SpanLPSolve, int32(i), int64(10*i), 0)
	}
	if tr.Count() != 5 {
		t.Fatalf("count = %d, want 5", tr.Count())
	}
	spans := tr.Snapshot()
	if len(spans) != 3 {
		t.Fatalf("snapshot kept %d spans, want ring size 3", len(spans))
	}
	for i, s := range spans {
		wantLabel := int32(i + 2) // oldest retained is #2
		if s.Label != wantLabel || s.Seq != uint64(i+2) {
			t.Errorf("span %d = label %d seq %d, want label %d seq %d", i, s.Label, s.Seq, wantLabel, i+2)
		}
		if s.Pivots != int64(10*(i+2)) {
			t.Errorf("span %d pivots = %d", i, s.Pivots)
		}
		if s.Dur < 0 || s.Start < 0 {
			t.Errorf("span %d has negative time: start %v dur %v", i, s.Start, s.Dur)
		}
	}
	if got := tr.CountByKind()[SpanLPSolve]; got != 3 {
		t.Errorf("CountByKind = %d, want 3", got)
	}
}

func TestTracerSpanTiming(t *testing.T) {
	tr := NewTracer(8)
	c := tr.Begin()
	time.Sleep(2 * time.Millisecond)
	tr.End(c, SpanStage, 1, 0, 2)
	s := tr.Snapshot()[0]
	if s.Dur < time.Millisecond {
		t.Errorf("span duration %v implausibly short", s.Dur)
	}
	if s.Kind != SpanStage || s.Err != 2 {
		t.Errorf("span = %+v", s)
	}
}

// TestEnabledTracerDoesNotAllocate: even with tracing on, recording a
// span must not allocate (the ring is preallocated); only then can traced
// production runs keep GC pressure flat.
func TestEnabledTracerDoesNotAllocate(t *testing.T) {
	tr := NewTracer(64)
	if avg := testing.AllocsPerRun(1000, func() {
		c := tr.Begin()
		tr.End(c, SpanCandidate, 1, 2, 0)
	}); avg != 0 {
		t.Fatalf("span recording allocates %.1f allocs/op, want 0", avg)
	}
}

// TestSnapshotOrderAroundWraparound pins Snapshot's oldest-first contract
// at the two boundary fills: exactly capacity spans (the ring is full but
// nothing was overwritten — the next write index is 0 again, and a naive
// rotation would split the untouched ring in the wrong place) and
// capacity+1 (the first genuine overwrite).
func TestSnapshotOrderAroundWraparound(t *testing.T) {
	const capacity = 4
	record := func(n int) []Span {
		tr := NewTracer(capacity)
		for i := 0; i < n; i++ {
			tr.End(tr.Begin(), SpanLPSolve, int32(i), 0, 0)
		}
		return tr.Snapshot()
	}

	full := record(capacity)
	if len(full) != capacity {
		t.Fatalf("at exactly capacity: snapshot kept %d spans, want %d", len(full), capacity)
	}
	for i, s := range full {
		if s.Seq != uint64(i) || s.Label != int32(i) {
			t.Fatalf("at exactly capacity: span %d = seq %d label %d, want %d", i, s.Seq, s.Label, i)
		}
	}

	wrapped := record(capacity + 1)
	if len(wrapped) != capacity {
		t.Fatalf("at capacity+1: snapshot kept %d spans, want %d", len(wrapped), capacity)
	}
	for i, s := range wrapped {
		want := uint64(i + 1) // span 0 was overwritten
		if s.Seq != want || s.Label != int32(want) {
			t.Fatalf("at capacity+1: span %d = seq %d label %d, want %d", i, s.Seq, s.Label, want)
		}
	}
}

func TestEndOnTrackAndRunStamping(t *testing.T) {
	tr := NewTracer(8)
	rec := &Recorder{Trace: tr}
	tr.EndOnTrack(tr.Begin(), SpanZoneSolve, 3, 3, 17, 1)
	if got := rec.NextRun(); got != 1 || rec.Run() != 1 {
		t.Fatalf("NextRun = %d, Run = %d, want 1", got, rec.Run())
	}
	tr.End(tr.Begin(), SpanEpoch, 0, 0, 0)
	spans := tr.Snapshot()
	if len(spans) != 2 {
		t.Fatalf("got %d spans", len(spans))
	}
	if s := spans[0]; s.Track != 3 || s.Run != 0 || s.Pivots != 17 || s.Err != 1 {
		t.Errorf("pre-run span = %+v, want track 3 run 0", s)
	}
	if s := spans[1]; s.Track != 0 || s.Run != 1 {
		t.Errorf("post-run span = %+v, want track 0 run 1", s)
	}
	var nilTr *Tracer
	nilTr.setRun(1) // must not panic
	if (&Recorder{}).NextRun() != 1 {
		t.Error("a recorder without a tracer must still count runs")
	}
	if !nilTr.WallStart().IsZero() {
		t.Error("nil tracer WallStart not zero")
	}
}

func TestSpanKindStrings(t *testing.T) {
	for k := SpanKind(0); k < numSpanKinds; k++ {
		if k.String() == "span" {
			t.Errorf("SpanKind %d has no name", k)
		}
	}
}
