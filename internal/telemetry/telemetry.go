// Package telemetry is the observability substrate of the repository: a
// dependency-free (standard library only) layer that the controller, the
// three-stage solvers, the simplex core, and the truth plant all report
// through.
//
// It has two parts, bundled by Recorder:
//
//   - a span Tracer for the solve pipeline (controller epoch → ladder
//     rung → three-stage stage → tempsearch candidate → linprog solve)
//     recording wall time, simplex pivots, and an error kind into a
//     preallocated ring buffer. A nil *Tracer is the disabled state: every
//     method is a nil-receiver no-op that never calls time.Now, which
//     preserves the warm-epoch zero-allocation guarantee of the solvers.
//   - a JSONL time-series exporter (JSONLWriter) of per-epoch EpochSample
//     rows — inlet-temperature headroom, power headroom against Pconst,
//     reward rate, drop/loss counts, LP work counters, ladder rung —
//     validated by cmd/tscheck against SampleSchema.
//
// The Recorder also owns the run number (NextRun) that separates the
// controller runs of a sweep: series rows and span pids both read it
// from there.
//
// Everything is nil-safe: a nil *Recorder (and nil components) disables
// the layer at the cost of one pointer comparison per call site.
package telemetry

import "sync/atomic"

// Recorder bundles the telemetry components one run threads through the
// solver plumbing. Any field may be nil to disable that component; a nil
// *Recorder disables everything.
type Recorder struct {
	// Trace receives solve-pipeline spans (nil = tracing disabled, the
	// default; the solvers' hot paths then skip their time.Now calls).
	Trace *Tracer
	// Series receives one EpochSample per controller epoch (nil = no
	// time-series export).
	Series *JSONLWriter

	run atomic.Int32
}

// NewRecorder returns a Recorder with tracing and series export left
// disabled; callers switch components on by setting its fields.
func NewRecorder() *Recorder {
	return &Recorder{}
}

// NextRun advances the run number and returns it. Sweeps call it once
// before each controller run; the run's series rows carry Run() and its
// spans carry it as their Span.Run, so one run number ties the two
// outputs together. Nil-safe (returns 0).
func (r *Recorder) NextRun() int {
	if r == nil {
		return 0
	}
	n := r.run.Add(1)
	r.Trace.setRun(n)
	return int(n)
}

// Run returns the current run number (0 before the first NextRun).
// Nil-safe.
func (r *Recorder) Run() int {
	if r == nil {
		return 0
	}
	return int(r.run.Load())
}

// Tracer returns the span tracer, nil when disabled.
func (r *Recorder) Tracer() *Tracer {
	if r == nil {
		return nil
	}
	return r.Trace
}

// SeriesSink returns the JSONL exporter, nil when disabled.
func (r *Recorder) SeriesSink() *JSONLWriter {
	if r == nil {
		return nil
	}
	return r.Series
}
