package telemetry

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func sample() EpochSample {
	return EpochSample{
		Epoch: 1, TStart: 0, TEnd: 15, Resolved: true, Rung: "warm",
		RewardRate: 120.5, Completed: 40, Dropped: 2, Lost: 1,
		SolveWallS: 0.02, PowerKW: 90, PowerHeadroomKW: 10,
		InletHeadroomC:         1.5,
		InletHeadroomBySensorC: []float64{1.5, 2.5},
		CracOutC:               []float64{15, 16},
		LPSolves:               3, LPPivots: 120,
	}
}

// TestRecorderRunsStampSeriesAndSpans: the recorder's run number is the
// one counter behind series rows and span pids, so a row and a span from
// the same run agree, with or without a series sink attached.
func TestRecorderRunsStampSeriesAndSpans(t *testing.T) {
	var b strings.Builder
	tr := NewTracer(8)
	rec := &Recorder{Trace: tr, Series: NewJSONLWriter(&b)}
	for run := 1; run <= 2; run++ {
		if got := rec.NextRun(); got != run {
			t.Fatalf("NextRun = %d, want %d", got, run)
		}
		s := sample()
		s.Run = rec.Run()
		if err := rec.SeriesSink().Write(&s); err != nil {
			t.Fatal(err)
		}
		tr.End(tr.Begin(), SpanEpoch, 0, 0, 0)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	if len(lines) != 2 || rec.Series.Samples() != 2 {
		t.Fatalf("wrote %d lines, Samples()=%d, want 2", len(lines), rec.Series.Samples())
	}
	spans := tr.Snapshot()
	for i, line := range lines {
		var got EpochSample
		if err := json.Unmarshal([]byte(line), &got); err != nil {
			t.Fatalf("line %d not valid JSON: %v", i, err)
		}
		if got.Run != i+1 || int(spans[i].Run) != got.Run {
			t.Errorf("line %d run = %d, span run = %d, want %d", i, got.Run, spans[i].Run, i+1)
		}
	}
}

func TestWriteRejectsBadSamples(t *testing.T) {
	var b strings.Builder
	jw := NewJSONLWriter(&b)
	bad := sample()
	bad.PowerKW = math.NaN()
	if err := jw.Write(&bad); err == nil {
		t.Errorf("NaN power accepted")
	}
	bad = sample()
	bad.InletHeadroomBySensorC = []float64{math.Inf(-1)}
	if err := jw.Write(&bad); err == nil {
		t.Errorf("-Inf headroom accepted")
	}
	bad = sample()
	bad.TEnd = bad.TStart - 1
	if err := jw.Write(&bad); err == nil {
		t.Errorf("backwards interval accepted")
	}
	bad = sample()
	bad.LPPivots = -1
	if err := jw.Write(&bad); err == nil {
		t.Errorf("negative count accepted")
	}
	if b.Len() != 0 {
		t.Errorf("rejected samples still wrote output: %q", b.String())
	}
}

func TestNilJSONLWriterIsSafe(t *testing.T) {
	var jw *JSONLWriter
	if err := jw.Write(nil); err != nil {
		t.Fatal(err)
	}
	if jw.Samples() != 0 {
		t.Fatal("nil writer kept state")
	}
}

// TestSchemaMatchesStruct keeps SampleSchema, SampleRequired, and the
// struct's JSON tags from drifting apart: every emitted key must be in
// the schema, every required key must be emitted by a fully-populated
// sample, and optional keys must really be omitted when empty.
func TestSchemaMatchesStruct(t *testing.T) {
	schema := SampleSchema()

	full := sample()
	full.ErrKind = "timeout"
	full.Violations = 1
	raw, err := json.Marshal(&full)
	if err != nil {
		t.Fatal(err)
	}
	var keys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &keys); err != nil {
		t.Fatal(err)
	}
	for k := range keys {
		if _, ok := schema[k]; !ok {
			t.Errorf("emitted key %q missing from SampleSchema", k)
		}
	}
	for _, req := range SampleRequired() {
		if _, ok := keys[req]; !ok {
			t.Errorf("required key %q not emitted by a populated sample", req)
		}
		if _, ok := schema[req]; !ok {
			t.Errorf("required key %q missing from SampleSchema", req)
		}
	}

	// A minimal sample must still carry every required key (omitempty may
	// only hide optional ones).
	raw, err = json.Marshal(&EpochSample{TEnd: 1})
	if err != nil {
		t.Fatal(err)
	}
	var minKeys map[string]json.RawMessage
	if err := json.Unmarshal(raw, &minKeys); err != nil {
		t.Fatal(err)
	}
	for _, req := range SampleRequired() {
		if _, ok := minKeys[req]; !ok {
			t.Errorf("required key %q omitted from a minimal sample", req)
		}
	}
}
