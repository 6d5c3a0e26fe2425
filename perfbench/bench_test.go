package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"thermaldc/internal/telemetry"
)

// runTiny runs one workload at tiny scale and returns the parsed result
// line and the full standard output.
func runTiny(t *testing.T, workload string, trace string, out string) (result, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", workload, "-scale", "tiny", "-seconds", "0.3", "-trace", trace, "-seed", "3"}
	if out != "" {
		args = append(args, "-out", out)
	}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("%s trace %s: exit %d: %s", workload, trace, code, stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not a result: %v\n%s", workload, err, stdout.String())
	}
	return res, stdout.String()
}

func TestWorkloadsTinySmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := runTiny(t, w.name, "0", "")
			if !res.Correct || res.Failed != 0 || res.Attempted < w.inputs {
				t.Fatalf("correct=%v attempted=%d failed=%d\n%s", res.Correct, res.Attempted, res.Failed, out)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Fatalf("got %d end-to-end metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for _, d := range endToEnd {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit || m.Value <= 0 {
					t.Errorf("metric %s = %+v, want a positive value in %s", d.name, m, d.unit)
				}
			}
		})
	}
}

func TestAllWorkloadsOneProcess(t *testing.T) {
	res, out := runTiny(t, "all", "0", "")
	if !res.Correct || res.Failed != 0 {
		t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
	}
	for _, w := range workloads {
		for _, d := range endToEnd {
			name := w.name + "." + d.name
			if m, ok := res.Metrics[name]; !ok || m.Unit != d.unit || !metricName.MatchString(name) {
				t.Errorf("metric %s = %+v, want it in %s", name, m, d.unit)
			}
		}
	}
}

func TestWorkloadsTinyTraced(t *testing.T) {
	dir := t.TempDir()
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			res, out := runTiny(t, w.name, "1", dir)
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("correct=%v failed=%d\n%s", res.Correct, res.Failed, out)
			}
			if len(res.Metrics) != len(perLayer) {
				t.Fatalf("got %d per-layer metrics, want %d", len(res.Metrics), len(perLayer))
			}
			// Every count and time meta.json maps to this workload is
			// measured (fractions and shares may legitimately be 0).
			m, err := loadMeta()
			if err != nil {
				t.Fatal(err)
			}
			for name, lm := range m.PerLayer {
				if strings.HasSuffix(name, "_frac") || strings.HasSuffix(name, ".share") {
					continue
				}
				for _, wl := range lm.Workloads {
					if wl == w.name && res.Metrics[name].Value <= 0 {
						t.Errorf("per-layer %s = %g on %s, want it measured", name, res.Metrics[name].Value, w.name)
					}
				}
			}
			share := 0.0
			for _, l := range layers {
				share += res.Metrics[l+".share"].Value
			}
			if share < 0.999 || share > 1.001 {
				t.Errorf("layer shares sum to %g, want 1", share)
			}
			f, err := os.Open(filepath.Join(dir, "trace-"+w.name+"-seed3.json"))
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			ct, err := telemetry.ReadChromeTrace(f)
			if err != nil {
				t.Fatal(err)
			}
			if err := ct.Lint(); err != nil {
				t.Fatalf("chrome trace fails lint: %v", err)
			}
		})
	}
}

// benchmarkFile is the part of ../BENCHMARK.json the names are checked
// against.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricNamesAndUnits(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	m, err := loadMeta()
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	check := func(kind string, defs []metricDef, listed []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(listed) {
			t.Errorf("%s: program emits %d metrics, BENCHMARK.json lists %d", kind, len(defs), len(listed))
		}
		for i, d := range defs {
			if !metricName.MatchString(d.name) || d.unit == "" {
				t.Errorf("%s metric %q (unit %q): name must match %s and carry a unit", kind, d.name, d.unit, metricName)
			}
			if seen[d.name] {
				t.Errorf("metric %q emitted twice", d.name)
			}
			seen[d.name] = true
			if i < len(listed) && (listed[i].Name != d.name || listed[i].Unit != d.unit) {
				t.Errorf("%s metric %d: program emits %s [%s], BENCHMARK.json lists %s [%s]",
					kind, i, d.name, d.unit, listed[i].Name, listed[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, d := range endToEnd {
		if m.EndToEnd[d.name] == "" {
			t.Errorf("meta.json end_to_end lacks a description of %s", d.name)
		}
	}
	if len(m.EndToEnd) != len(endToEnd) || m.Timing == "" {
		t.Errorf("meta.json describes %d end-to-end metrics (timing %q), program emits %d", len(m.EndToEnd), m.Timing, len(endToEnd))
	}

	var names, metaNames []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	for name, wm := range m.Workloads {
		metaNames = append(metaNames, name)
		if wm.Why == "" || wm.Seed == "" {
			t.Errorf("meta.json workload %s needs why and seed", name)
		}
	}
	sort.Strings(metaNames)
	var listed []string
	for _, w := range bf.Workloads {
		listed = append(listed, w.Name)
	}
	sorted := append([]string(nil), names...)
	sort.Strings(sorted)
	if strings.Join(sorted, ",") != strings.Join(metaNames, ",") || strings.Join(names, ",") != strings.Join(listed, ",") {
		t.Errorf("workloads: program %v, meta.json %v, BENCHMARK.json %v", names, metaNames, listed)
	}
	for _, d := range perLayer {
		lm, ok := m.PerLayer[d.name]
		if !ok || len(lm.Moves) == 0 || len(lm.Workloads) == 0 || lm.Source == "" {
			t.Errorf("meta.json per_layer lacks a full entry for %s", d.name)
			continue
		}
		for _, mv := range lm.Moves {
			if !containsMetric(endToEnd, mv) {
				t.Errorf("per-layer %s moves unknown end-to-end metric %s", d.name, mv)
			}
		}
	}
	if len(m.PerLayer) != len(perLayer) {
		t.Errorf("meta.json maps %d per-layer metrics, program emits %d", len(m.PerLayer), len(perLayer))
	}
}

func containsMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func TestSelfTimesAttributeDeepestLayer(t *testing.T) {
	ms := time.Millisecond
	calls := []call{{name: "assign.threestage", start: 0, end: 100 * ms}}
	spans := []telemetry.Span{
		{Kind: telemetry.SpanStage, Label: 0, Start: 10 * ms, Dur: 60 * ms},
		// Two search workers on parallel tracks; their LP solves overlap.
		{Kind: telemetry.SpanCandidate, Start: 10 * ms, Dur: 30 * ms},
		{Kind: telemetry.SpanCandidate, Track: 1, Start: 20 * ms, Dur: 30 * ms},
		{Kind: telemetry.SpanLPSolve, Start: 15 * ms, Dur: 20 * ms},
		{Kind: telemetry.SpanLPSolve, Start: 25 * ms, Dur: 20 * ms},
	}
	got := selfTimes(-10*ms, 110*ms, calls, spans)
	want := map[string]time.Duration{
		"other":      20 * ms, // window outside the call
		"assign":     40 * ms, // call minus the search stage
		"tempsearch": 30 * ms, // stage and candidates outside LP solves
		"linprog":    30 * ms, // 15..45, the union of both solves
	}
	for li, l := range layers {
		if got[li] != want[l] {
			t.Errorf("layer %s: self %v, want %v", l, got[li], want[l])
		}
	}
}

func TestEndToEndTimesScaleBySpeed(t *testing.T) {
	p := &phase{opMS: []float64{100, 300, 200}, allocMB: []float64{1, 1, 1}, rssMB: []float64{5, 5, 5}, rewards: []float64{7}}
	got := endToEndValues(p, []float64{2, 1, 3}, 0.5)
	want := map[string]float64{
		"op_p50_ms":       100, // median 200 ms at speed factor 0.5
		"op_tail_ms":      50,  // the minimum: fewer than ten ops
		"ops_per_s":       10,  // 3 ops in 300 scaled ms
		"setup_s":         1,
		"alloc_mb_per_op": 1,
		"rss_peak_mb":     5,
		"reward_rate":     7,
	}
	for name, v := range want {
		if math.Abs(got[name]-v) > 1e-9 {
			t.Errorf("%s = %g, want %g", name, got[name], v)
		}
	}
}

func TestCalibratorMeasures(t *testing.T) {
	c := newCalibrator(2)
	for k := 0; k < 3; k++ {
		if ms := c.run(); !(ms > 0) {
			t.Fatalf("calibration %d took %g ms, want a positive time", k, ms)
		}
	}
	for _, w := range c.workers {
		if math.IsNaN(w.sink) || math.IsInf(w.sink, 0) {
			t.Fatalf("dense kernel diverged: %g", w.sink)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	xs := make([]float64, 40)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, p := tail(xs); v != 30 || p != 75 {
		t.Errorf("tail of 1..40 = %g at p%g, want 30 at p75", v, p)
	}
	if v, p := tail(xs[:8]); v != 1 || p != 0 {
		t.Errorf("tail of 1..8 = %g at p%g, want the minimum at p0", v, p)
	}
}
