package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"regexp"
)

// metricDef is one metric the benchmark reports: its name and unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics an untraced run reports, for every workload.
var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_tail_ms", "ms"},
	{"ops_per_s", "1/s"},
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"rss_peak_mb", "MB"},
	{"reward_rate", "reward/s"},
}

// perLayer are the metrics a traced run reports, for every workload; a
// layer the workload never calls reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.build_ms", "ms"},
		{"layout.alpha_ms", "ms"},
		{"assign.baseline_ms", "ms"},
		{"assign.threestage_ms", "ms"},
		{"tempsearch.evals_per_op", "count"},
		{"linprog.solves_per_op", "count"},
		{"linprog.pivots_per_op", "count"},
		{"linprog.pivots_per_solve", "count"},
		{"controller.solve_ms_per_epoch", "ms"},
		{"controller.resolves_per_op", "count"},
		{"controller.rung_warm_frac", "frac"},
		{"sim.run_ms", "ms"},
		{"sim.tasks_per_s", "1/s"},
		{"sim.alloc_mb", "MB"},
		{"sim.drop_frac", "frac"},
		{"zones.solve_ms", "ms"},
		{"zones.rounds_per_op", "count"},
		{"zones.zone_solves_per_op", "count"},
		{"zones.fallback_frac", "frac"},
		{"linprog.warm_hit_frac", "frac"},
		{"assign.finish_ms", "ms"},
		{"assign.verify_ms", "ms"},
	}
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".share", "frac"})
	}
	return append(defs, metricDef{"telemetry.trace_overhead_frac", "frac"})
}()

// metricName is the pattern every emitted metric name must match.
var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// metricValue is one entry of the result line's metrics object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill builds the metrics object for defs from values; a name missing from
// values reports 0, and a non-finite value (a bug) is an error.
func fill(defs []metricDef, values map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v := values[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s is not finite", d.name)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}

// meta is the benchmark's record of itself (meta.json): how times are
// scaled, what each end-to-end metric is, why each workload was chosen,
// what its seed argument drives, which end-to-end metric each per-layer
// metric should move, the host the reference numbers came from, and the
// per-seed reference rewards the output checks compare against.
type meta struct {
	RewardRelTol  float64                 `json:"reward_rel_tol"`
	Timing        string                  `json:"timing"`
	EndToEnd      map[string]string       `json:"end_to_end"`
	ReferenceHost map[string]string       `json:"reference_host"`
	Workloads     map[string]workloadMeta `json:"workloads"`
	PerLayer      map[string]layerMeta    `json:"per_layer"`
}

type workloadMeta struct {
	Why  string `json:"why"`
	Seed string `json:"seed"`
	// Reference maps a seed (decimal) to the reward rates of ops
	// 0..inputs-1 at paper scale.
	Reference map[string][]float64 `json:"reference,omitempty"`
}

type layerMeta struct {
	Moves     []string `json:"moves"`
	Workloads []string `json:"workloads"`
	Source    string   `json:"source"`
}

//go:embed meta.json
var metaJSON []byte

func loadMeta() (*meta, error) {
	var m meta
	if err := json.Unmarshal(metaJSON, &m); err != nil {
		return nil, fmt.Errorf("meta.json: %w", err)
	}
	return &m, nil
}
