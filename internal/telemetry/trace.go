package telemetry

import (
	"sync"
	"time"
)

// SpanKind names a level of the solve pipeline. The hierarchy, outermost
// first: one controller epoch runs ladder rungs, a rung runs the three
// stages, the search stage evaluates tempsearch candidates, and every
// candidate (and every stage LP) runs simplex solves.
type SpanKind uint8

const (
	// SpanEpoch is one controller epoch's whole ladder trip; Label is the
	// boundary index.
	SpanEpoch SpanKind = iota
	// SpanRung is one degradation-ladder solve attempt; Label is the
	// controller.Rung the attempt would land on.
	SpanRung
	// SpanStage is one three-stage phase; Label is 0 search, 1 Stage-1,
	// 2 Stage-2, 3 Stage-3. The search span's Pivots field carries the
	// number of candidates the search evaluated (candidates its
	// weak-duality screen skipped are not counted).
	SpanStage
	// SpanCandidate is one tempsearch objective evaluation; Label is the
	// worker index, Err is 0 feasible / 1 infeasible.
	SpanCandidate
	// SpanLPSolve is one linprog solve; Pivots is the simplex work and Err
	// the numeric Solution status.
	SpanLPSolve
	// SpanZoneSolve is one per-zone Stage-1 solve inside the fleet
	// decomposition; Label is the zone index, Pivots the simplex work, and
	// Err is 1 when the solve failed.
	SpanZoneSolve
	// SpanCoordRound is one price-coordination round of the zone master
	// (master knapsack + all zone evaluations); Label is the round index
	// and Err is 1 when the round ended in monolithic fallback.
	SpanCoordRound

	numSpanKinds
)

// SpanKindCount is the number of defined span kinds; exported so trace
// consumers (cmd/tapo trace) can validate Kind values without importing
// internals.
const SpanKindCount = int(numSpanKinds)

func (k SpanKind) String() string {
	switch k {
	case SpanEpoch:
		return "epoch"
	case SpanRung:
		return "rung"
	case SpanStage:
		return "stage"
	case SpanCandidate:
		return "candidate"
	case SpanLPSolve:
		return "lp-solve"
	case SpanZoneSolve:
		return "zone-solve"
	case SpanCoordRound:
		return "coord-round"
	default:
		return "span"
	}
}

// Span is one recorded interval of the solve pipeline.
type Span struct {
	Kind SpanKind
	// Label disambiguates spans of one kind; see the SpanKind constants.
	Label int32
	// Start is the span's begin time relative to the tracer's creation;
	// Dur its wall time.
	Start, Dur time.Duration
	// Pivots counts simplex basis changes inside the span (LP solves only).
	Pivots int64
	// Err is a kind-specific error code; 0 means success.
	Err int32
	// Track is the executor lane the span ran on (Chrome-trace tid):
	// 0 for the control path, a worker index for tempsearch candidates,
	// a zone index for per-zone solves. Spans on one track must nest by
	// time containment, which is how the exported timeline expresses
	// parentage without explicit parent pointers.
	Track int32
	// Run is the controller run the span belongs to (Chrome-trace pid):
	// the Recorder.NextRun number current when the span ended.
	Run int32
	// Seq is the global record sequence number (monotone per tracer).
	Seq uint64
}

// SpanClock is the begin timestamp handed out by Tracer.Begin. Its zero
// value marks a disabled span: End drops it without reading the clock.
type SpanClock struct{ t time.Time }

// Tracer records spans into a fixed ring buffer, overwriting the oldest
// once full. A nil *Tracer is the disabled state: Begin and End are
// nil-receiver no-ops that never read the clock, take no locks, and
// allocate nothing — the solvers keep their warm-path zero-allocation
// guarantee with tracing off. An enabled tracer serializes writers on a
// mutex (span recording is well off any per-pivot path) and still never
// allocates after construction.
type Tracer struct {
	mu    sync.Mutex
	epoch time.Time
	ring  []Span
	n     uint64
	run   int32
}

// DefaultTraceCapacity sizes NewTracer's ring when the caller passes a
// non-positive capacity.
const DefaultTraceCapacity = 4096

// NewTracer returns a tracer with a ring of the given capacity
// (DefaultTraceCapacity when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCapacity
	}
	return &Tracer{epoch: time.Now(), ring: make([]Span, capacity)}
}

// Begin starts a span. On a nil tracer it returns the zero SpanClock
// without touching the clock.
func (t *Tracer) Begin() SpanClock {
	if t == nil {
		return SpanClock{}
	}
	return SpanClock{t: time.Now()}
}

// End records the span begun at c on track 0 (the control path). A nil
// tracer or a zero c (a Begin from a disabled tracer) is a no-op.
func (t *Tracer) End(c SpanClock, kind SpanKind, label int32, pivots int64, errCode int32) {
	t.EndOnTrack(c, kind, label, 0, pivots, errCode)
}

// EndOnTrack records the span begun at c on an explicit executor track
// (a tempsearch worker or a zone index). Same nil/zero no-op contract as
// End.
func (t *Tracer) EndOnTrack(c SpanClock, kind SpanKind, label, track int32, pivots int64, errCode int32) {
	if t == nil || c.t.IsZero() {
		return
	}
	now := time.Now()
	t.mu.Lock()
	i := t.n % uint64(len(t.ring))
	t.ring[i] = Span{
		Kind:   kind,
		Label:  label,
		Start:  c.t.Sub(t.epoch),
		Dur:    now.Sub(c.t),
		Pivots: pivots,
		Err:    errCode,
		Track:  track,
		Run:    t.run,
		Seq:    t.n,
	}
	t.n++
	t.mu.Unlock()
}

// setRun sets the run number stamped on subsequent spans. Only
// Recorder.NextRun calls it, so the recorder's counter stays the one
// source of run numbers. Nil-safe.
func (t *Tracer) setRun(run int32) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = run
	t.mu.Unlock()
}

// WallStart is the wall-clock instant Span.Start offsets are relative to
// (the tracer's creation time). Nil tracers report the zero time.
func (t *Tracer) WallStart() time.Time {
	if t == nil {
		return time.Time{}
	}
	return t.epoch
}

// Count returns how many spans were ever recorded (recorded − len(ring)
// of them may have been overwritten).
func (t *Tracer) Count() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Snapshot copies the retained spans oldest-first.
func (t *Tracer) Snapshot() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	size := uint64(len(t.ring))
	if t.n < size {
		return append([]Span(nil), t.ring[:t.n]...)
	}
	out := make([]Span, 0, size)
	start := t.n % size
	out = append(out, t.ring[start:]...)
	out = append(out, t.ring[:start]...)
	return out
}

// CountByKind tallies the retained spans per kind (a Snapshot
// convenience for tests and reports).
func (t *Tracer) CountByKind() map[SpanKind]int {
	out := make(map[SpanKind]int)
	for _, s := range t.Snapshot() {
		out[s.Kind]++
	}
	return out
}
