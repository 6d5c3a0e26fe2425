// Command tscheck validates the JSONL time series exported by
// `tapo degraded -metrics-out` (and any other telemetry.JSONLWriter
// output) against the schema in internal/telemetry:
//
//   - every line must be a JSON object whose keys are exactly the
//     EpochSample fields (unknown keys fail: they mean producer and
//     consumer disagree about the schema),
//   - every required key must be present and every value must match its
//     declared type (numbers, and only finite ones — NaN/Inf poison any
//     downstream averaging),
//   - run numbers must be positive and non-decreasing across the file,
//     epochs strictly increasing within a run, and the [t_start_s,
//     t_end_s) intervals monotone within a run.
//
// Usage: tscheck [file...]
// With no file it reads stdin. Exit status 1 means a malformed series,
// 2 an I/O problem.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"

	"thermaldc/internal/telemetry"
)

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	if len(args) == 0 {
		st, err := checkStream("<stdin>", os.Stdin)
		return report("<stdin>", st, err)
	}
	code := 0
	for _, path := range args {
		f, err := os.Open(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "tscheck:", err)
			return 2
		}
		st, err := checkStream(path, f)
		f.Close()
		if c := report(path, st, err); c > code {
			code = c
		}
	}
	return code
}

func report(name string, st seriesStats, err error) int {
	if err != nil {
		fmt.Fprintln(os.Stderr, "tscheck: FAIL:", err)
		return 1
	}
	fmt.Printf("tscheck: ok: %s (%d samples across %d runs)\n", name, st.Rows, st.Runs)
	return 0
}

// seriesStats summarizes a validated file.
type seriesStats struct {
	Rows, Runs int
}

// runState tracks the monotonicity invariants within one run.
type runState struct {
	epoch       int
	start, end  float64
	sawInterval bool
}

// checkStream validates one JSONL series; the returned error carries
// name:line for the first offending row.
func checkStream(name string, r io.Reader) (seriesStats, error) {
	schema := telemetry.SampleSchema()
	required := telemetry.SampleRequired()
	var st seriesStats
	lastRun := 0
	var cur runState

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	line := 0
	for sc.Scan() {
		line++
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("%s:%d: %s", name, line, fmt.Sprintf(format, args...))
		}

		dec := json.NewDecoder(bytes.NewReader(raw))
		dec.UseNumber()
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			return st, fail("not a JSON object: %v", err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return st, fail("trailing data after JSON object")
		}

		// Keys: no unknown names, no missing required fields.
		for k := range obj {
			if _, ok := schema[k]; !ok {
				return st, fail("unknown key %q (not in telemetry.SampleSchema)", k)
			}
		}
		for _, k := range required {
			if _, ok := obj[k]; !ok {
				return st, fail("missing required key %q", k)
			}
		}

		// Types: every present value must match its declared shape, and
		// every number must be finite (checked in sorted order so the
		// first error is deterministic).
		keys := make([]string, 0, len(obj))
		for k := range obj {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if err := checkType(k, schema[k], obj[k]); err != nil {
				return st, fail("%v", err)
			}
		}

		// Monotonicity: runs non-decreasing, epochs strictly increasing
		// and intervals monotone within a run.
		run := int(mustNum(obj["run"]))
		epoch := int(mustNum(obj["epoch"]))
		tStart, tEnd := mustNum(obj["t_start_s"]), mustNum(obj["t_end_s"])
		switch {
		case run < 1:
			return st, fail("run %d is not positive (Recorder.NextRun was never called)", run)
		case run < lastRun:
			return st, fail("run %d after run %d (runs must be non-decreasing)", run, lastRun)
		case run > lastRun:
			lastRun = run
			st.Runs++
			cur = runState{}
		}
		if cur.sawInterval {
			if epoch <= cur.epoch {
				return st, fail("run %d epoch %d after epoch %d (epochs must be strictly increasing within a run)", run, epoch, cur.epoch)
			}
			if tStart < cur.start || tEnd < cur.end {
				return st, fail("run %d epoch %d interval [%g, %g) precedes [%g, %g) (timestamps must be monotone within a run)",
					run, epoch, tStart, tEnd, cur.start, cur.end)
			}
		}
		if tEnd < tStart {
			return st, fail("run %d epoch %d interval [%g, %g) is backwards", run, epoch, tStart, tEnd)
		}
		cur = runState{epoch: epoch, start: tStart, end: tEnd, sawInterval: true}
		st.Rows++
	}
	if err := sc.Err(); err != nil {
		return st, fmt.Errorf("%s: %w", name, err)
	}
	if st.Rows == 0 {
		return st, fmt.Errorf("%s: no samples", name)
	}
	return st, nil
}

// checkType validates one value against its schema shape.
func checkType(key string, ft telemetry.FieldType, v any) error {
	switch ft {
	case telemetry.FieldNumber:
		return checkNumber(key, v)
	case telemetry.FieldString:
		if _, ok := v.(string); !ok {
			return fmt.Errorf("key %q: want string, got %T", key, v)
		}
	case telemetry.FieldBool:
		if _, ok := v.(bool); !ok {
			return fmt.Errorf("key %q: want bool, got %T", key, v)
		}
	case telemetry.FieldNumberArray:
		arr, ok := v.([]any)
		if !ok {
			return fmt.Errorf("key %q: want number array, got %T", key, v)
		}
		for i, e := range arr {
			if err := checkNumber(fmt.Sprintf("%s[%d]", key, i), e); err != nil {
				return err
			}
		}
	}
	return nil
}

func checkNumber(key string, v any) error {
	n, ok := v.(json.Number)
	if !ok {
		return fmt.Errorf("key %q: want number, got %T", key, v)
	}
	f, err := n.Float64()
	if err != nil || math.IsNaN(f) || math.IsInf(f, 0) {
		return fmt.Errorf("key %q: value %s is not a finite number", key, n)
	}
	return nil
}

// mustNum reads a float that checkType already validated.
func mustNum(v any) float64 {
	f, _ := v.(json.Number).Float64()
	return f
}
