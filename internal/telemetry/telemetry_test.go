package telemetry

import "testing"

func TestRecorderNilAccessors(t *testing.T) {
	var r *Recorder
	if r.Tracer() != nil || r.SeriesSink() != nil {
		t.Fatal("nil recorder handed out components")
	}
	if r.NextRun() != 0 || r.Run() != 0 {
		t.Fatal("nil recorder counted runs")
	}
	rec := NewRecorder()
	if rec.Tracer() != nil || rec.SeriesSink() != nil {
		t.Fatal("NewRecorder must leave tracing and series export disabled")
	}
}
