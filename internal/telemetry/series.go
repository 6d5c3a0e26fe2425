package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sync"
)

// EpochSample is one per-epoch row of the exported time series: the
// quantities the paper's two-step scheme lives on (inlet headroom against
// the redlines, power headroom against Pconst, the reward rate actually
// earned) plus the solve-pipeline telemetry of the epoch that produced
// the plan in force. All headrooms are signed: positive means margin,
// negative means the constraint was violated by that much.
type EpochSample struct {
	// Run separates concatenated controller runs in one file (a sweep
	// writes many); timestamps restart per run. It is the producing
	// Recorder's Run().
	Run int `json:"run"`
	// Epoch is the interval index within the run.
	Epoch int `json:"epoch"`
	// TStart and TEnd bound the interval in simulated seconds.
	TStart float64 `json:"t_start_s"`
	TEnd   float64 `json:"t_end_s"`
	// Resolved marks intervals that began with a first-step re-solve;
	// Rung is the degradation-ladder rung that produced the plan.
	Resolved bool   `json:"resolved"`
	Rung     string `json:"rung,omitempty"`
	// RewardRate is the interval's realized reward per second.
	RewardRate float64 `json:"reward_rate"`
	// Completed, Dropped (admission-time deadline misses) and Lost
	// (fault-destroyed) count the interval's tasks.
	Completed int `json:"completed"`
	Dropped   int `json:"dropped"`
	Lost      int `json:"lost"`
	// Violations counts planner-view assign.Verify findings against the
	// plan in force (0 for every shipped schedule).
	Violations int `json:"violations"`
	// SolveWallS is the ladder trip's wall time; ErrKind classifies the
	// last solve failure.
	SolveWallS float64 `json:"solve_wall_s"`
	ErrKind    string  `json:"err_kind,omitempty"`
	// PowerKW is the truth plant's total draw at the interval's plan;
	// PowerHeadroomKW = cap − power (negative = cap exceeded).
	PowerKW         float64 `json:"power_kw"`
	PowerHeadroomKW float64 `json:"power_headroom_kw"`
	// InletHeadroomC is the worst (minimum) redline − inlet margin over
	// all thermal sensors; the per-sensor breakdown follows.
	InletHeadroomC         float64   `json:"inlet_headroom_c"`
	InletHeadroomBySensorC []float64 `json:"inlet_headroom_by_sensor_c,omitempty"`
	// CracOutC is the CRAC outlet setpoint vector of the plan in force.
	CracOutC []float64 `json:"crac_out_c,omitempty"`
	// LP work counters drained from the warm solver for this epoch.
	LPSolves     int64 `json:"lp_solves"`
	LPPivots     int64 `json:"lp_pivots"`
	LPAllocBytes int64 `json:"lp_alloc_bytes"`
}

// FieldType is the JSON shape of one EpochSample field, for schema
// validation (cmd/tscheck).
type FieldType uint8

const (
	FieldNumber FieldType = iota
	FieldString
	FieldBool
	FieldNumberArray
)

// SampleSchema maps every EpochSample JSON key to its expected type. It
// is the single source of truth cmd/tscheck validates exported files
// against: unknown keys in a file fail the check.
func SampleSchema() map[string]FieldType {
	return map[string]FieldType{
		"run":                        FieldNumber,
		"epoch":                      FieldNumber,
		"t_start_s":                  FieldNumber,
		"t_end_s":                    FieldNumber,
		"resolved":                   FieldBool,
		"rung":                       FieldString,
		"reward_rate":                FieldNumber,
		"completed":                  FieldNumber,
		"dropped":                    FieldNumber,
		"lost":                       FieldNumber,
		"violations":                 FieldNumber,
		"solve_wall_s":               FieldNumber,
		"err_kind":                   FieldString,
		"power_kw":                   FieldNumber,
		"power_headroom_kw":          FieldNumber,
		"inlet_headroom_c":           FieldNumber,
		"inlet_headroom_by_sensor_c": FieldNumberArray,
		"crac_out_c":                 FieldNumberArray,
		"lp_solves":                  FieldNumber,
		"lp_pivots":                  FieldNumber,
		"lp_alloc_bytes":             FieldNumber,
	}
}

// SampleRequired lists the keys every exported sample must carry
// (omitempty fields are optional).
func SampleRequired() []string {
	return []string{
		"run", "epoch", "t_start_s", "t_end_s", "resolved", "reward_rate",
		"completed", "dropped", "lost", "violations",
		"solve_wall_s", "power_kw", "power_headroom_kw", "inlet_headroom_c",
		"lp_solves", "lp_pivots", "lp_alloc_bytes",
	}
}

// Validate rejects samples that would poison the exported series:
// non-finite floats (JSON cannot carry them and downstream consumers
// cannot average them), negative counts, or a backwards interval.
func (s *EpochSample) Validate() error {
	floats := []struct {
		name string
		v    float64
	}{
		{"t_start_s", s.TStart}, {"t_end_s", s.TEnd},
		{"reward_rate", s.RewardRate}, {"solve_wall_s", s.SolveWallS},
		{"power_kw", s.PowerKW}, {"power_headroom_kw", s.PowerHeadroomKW},
		{"inlet_headroom_c", s.InletHeadroomC},
	}
	for _, f := range floats {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return fmt.Errorf("telemetry: sample field %s is non-finite (%g)", f.name, f.v)
		}
	}
	for _, arr := range [][]float64{s.InletHeadroomBySensorC, s.CracOutC} {
		for _, v := range arr {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("telemetry: sample array value is non-finite (%g)", v)
			}
		}
	}
	if s.TEnd < s.TStart {
		return fmt.Errorf("telemetry: sample interval [%g, %g) is backwards", s.TStart, s.TEnd)
	}
	for _, c := range []struct {
		name string
		v    int64
	}{
		{"epoch", int64(s.Epoch)}, {"completed", int64(s.Completed)},
		{"dropped", int64(s.Dropped)}, {"lost", int64(s.Lost)},
		{"violations", int64(s.Violations)},
		{"lp_solves", s.LPSolves}, {"lp_pivots", s.LPPivots},
		{"lp_alloc_bytes", s.LPAllocBytes},
	} {
		if c.v < 0 {
			return fmt.Errorf("telemetry: sample count %s is negative (%d)", c.name, c.v)
		}
	}
	return nil
}

// JSONLWriter appends EpochSample rows to a writer, one JSON object per
// line. Safe for concurrent use; a nil *JSONLWriter drops everything.
type JSONLWriter struct {
	mu  sync.Mutex
	enc *json.Encoder
	n   int
}

// NewJSONLWriter wraps w.
func NewJSONLWriter(w io.Writer) *JSONLWriter {
	return &JSONLWriter{enc: json.NewEncoder(w)}
}

// Write validates s and appends it as one line. A validation failure is
// returned (and nothing is written) so bad values surface at the
// producer, not in a consumer's parser. Nil-safe: a nil writer never
// reads s.
func (jw *JSONLWriter) Write(s *EpochSample) error {
	if jw == nil {
		return nil
	}
	if err := s.Validate(); err != nil {
		return err
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	if err := jw.enc.Encode(s); err != nil {
		return fmt.Errorf("telemetry: writing sample: %w", err)
	}
	jw.n++
	return nil
}

// Samples returns how many rows were written.
func (jw *JSONLWriter) Samples() int {
	if jw == nil {
		return 0
	}
	jw.mu.Lock()
	defer jw.mu.Unlock()
	return jw.n
}
