// Command benchcheck enforces the performance contracts recorded by
// `make bench-compare`. It parses `go test -bench` output (plain text or the
// -json stream) and exits non-zero when a contract is broken. Checks are
// grouped into families and a family is enforced when any of its benchmarks
// appears in the input — so the simplex file and the fleet file are checked
// by the same binary — but within a present family every member must
// appear, which keeps a typo'd -bench regex from passing silently.
//
// Simplex family (BenchmarkThreeStagePaperScale/...):
//
//   - warm-resolve-allocs and warm-resolve-allocs-metrics must report
//     exactly 0 allocs/op (the warm Stage-1 scratch path has a
//     zero-allocation contract, without and with a live telemetry
//     Recorder attached), and
//   - solver-serial (the flat incremental solver) must not be slower than
//     legacy-rebuild (per-candidate tableau reconstruction).
//
// Fleet family (BenchmarkFleetStage1/...): the 10k-node point's ns/node —
// wall time per zone-decomposed Stage-1 solve divided by fleet node count —
// must stay within -fleet-tolerance of the 1k-node point's, i.e. the
// decomposition must scale linearly or better in fleet size. The optional
// 50k point (TAPO_BENCH_50K) is held to the same bar when present, and
// zone-warm-resolve must report exactly 0 allocs/op (the warm zone
// re-solve on retained cut pools, telemetry off, keeps the Stage-1
// zero-allocation contract).
//
// Usage: benchcheck [-tolerance f] [-fleet-tolerance f] [file]
// With no file, it reads stdin. The tolerances (default 1.05 and 1.25)
// absorb scheduler noise on short -benchtime runs.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"strconv"
	"strings"
)

// benchLine matches a benchmark result row: the ns/op column, the optional
// custom ns/node metric, and the optional -benchmem tail. The -NN
// GOMAXPROCS suffix is folded into the name.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op` +
		`(?:\s+([0-9.]+) ns/node)?` +
		`(?:\s+([0-9.]+) B/op\s+([0-9.]+) allocs/op)?`)

type result struct {
	nsPerOp     float64
	nsPerNode   float64
	hasNsNode   bool
	allocsPerOp float64
	hasAllocs   bool
}

func main() {
	os.Exit(run())
}

func run() int {
	tolerance := flag.Float64("tolerance", 1.05,
		"fail if solver-serial ns/op exceeds legacy-rebuild ns/op by more than this factor")
	fleetTolerance := flag.Float64("fleet-tolerance", 1.25,
		"fail if the 10k-node fleet ns/node exceeds the 1k-node point by more than this factor")
	flag.Usage = func() {
		fmt.Fprintln(os.Stderr, "usage: benchcheck [-tolerance f] [-fleet-tolerance f] [bench-output-file]")
		flag.PrintDefaults()
	}
	flag.Parse()

	in := io.Reader(os.Stdin)
	name := "<stdin>"
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchcheck:", err)
			return 2
		}
		defer f.Close()
		in, name = f, flag.Arg(0)
	}

	results, err := parse(in)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchcheck: reading %s: %v\n", name, err)
		return 2
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no benchmark results found in %s\n", name)
		return 2
	}

	failures, checked := check(results, *tolerance, *fleetTolerance)
	if checked == 0 {
		fmt.Fprintf(os.Stderr, "benchcheck: no gated benchmark family found in %s\n", name)
		return 2
	}
	for _, f := range failures {
		fmt.Fprintln(os.Stderr, "benchcheck: FAIL:", f)
	}
	if len(failures) > 0 {
		return 1
	}
	fmt.Printf("benchcheck: ok (%d benchmarks checked in %s)\n", len(results), name)
	return 0
}

// parse accepts either raw `go test -bench` text or the `-json` event
// stream. JSON events carry the benchmark name in the Test field; the
// Output field may hold the full result row or just the measurement
// columns (`"       1\t 191680596 ns/op\n"`), so when Output lacks the
// Benchmark prefix the name is grafted back on from Test.
func parse(in io.Reader) (map[string]result, error) {
	results := make(map[string]result)
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if len(line) > 0 && line[0] == '{' {
			var ev struct {
				Action string
				Test   string
				Output string
			}
			if json.Unmarshal([]byte(line), &ev) == nil && ev.Action == "output" {
				line = strings.TrimLeft(ev.Output, " \t")
				if !strings.HasPrefix(line, "Benchmark") &&
					strings.HasPrefix(ev.Test, "Benchmark") && strings.Contains(line, "ns/op") {
					line = ev.Test + "\t" + line
				}
			}
		}
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var r result
		r.nsPerOp, _ = strconv.ParseFloat(m[3], 64)
		if m[4] != "" {
			r.nsPerNode, _ = strconv.ParseFloat(m[4], 64)
			r.hasNsNode = true
		}
		if m[6] != "" {
			r.allocsPerOp, _ = strconv.ParseFloat(m[6], 64)
			r.hasAllocs = true
		}
		results[trimProcs(m[1])] = r
	}
	return results, sc.Err()
}

// trimProcs drops the trailing -NN GOMAXPROCS suffix from a benchmark name.
var procsSuffix = regexp.MustCompile(`-\d+$`)

func trimProcs(name string) string { return procsSuffix.ReplaceAllString(name, "") }

// check runs every benchmark family whose members appear in results and
// returns the failures plus the number of families checked.
func check(results map[string]result, tolerance, fleetTolerance float64) (failures []string, checked int) {
	if present(results, simplexPrefix) {
		checked++
		failures = append(failures, checkSimplex(results, tolerance)...)
	}
	if present(results, fleetPrefix) {
		checked++
		failures = append(failures, checkFleet(results, fleetTolerance)...)
	}
	return failures, checked
}

const (
	simplexPrefix = "BenchmarkThreeStagePaperScale/"
	fleetPrefix   = "BenchmarkFleetStage1/"
)

// present reports whether any result name belongs to the family.
func present(results map[string]result, prefix string) bool {
	for name := range results {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	return false
}

func checkSimplex(results map[string]result, tolerance float64) []string {
	const (
		legacy      = simplexPrefix + "legacy-rebuild"
		serial      = simplexPrefix + "solver-serial"
		warm        = simplexPrefix + "warm-resolve-allocs"
		warmMetrics = simplexPrefix + "warm-resolve-allocs-metrics"
	)
	var failures []string

	for _, name := range []string{warm, warmMetrics} {
		w, ok := results[name]
		switch {
		case !ok:
			failures = append(failures, name+" missing from benchmark output")
		case !w.hasAllocs:
			failures = append(failures, name+" has no allocs/op column (run with -benchmem or b.ReportAllocs)")
		case w.allocsPerOp != 0:
			failures = append(failures, fmt.Sprintf(
				"%s reports %g allocs/op, want 0 (warm scratch path broke its zero-allocation contract)",
				name, w.allocsPerOp))
		}
	}

	l, okL := results[legacy]
	s, okS := results[serial]
	if !okL {
		failures = append(failures, legacy+" missing from benchmark output")
	}
	if !okS {
		failures = append(failures, serial+" missing from benchmark output")
	}
	if okL && okS && s.nsPerOp > l.nsPerOp*tolerance {
		failures = append(failures, fmt.Sprintf(
			"%s at %.0f ns/op is slower than %s at %.0f ns/op (×%.2f, tolerance ×%.2f)",
			serial, s.nsPerOp, legacy, l.nsPerOp, s.nsPerOp/l.nsPerOp, tolerance))
	}
	return failures
}

// checkFleet gates the fleet-scale scaling contract: ns/node must not grow
// with fleet size, up to the tolerance. The 1k and 10k points are
// mandatory once the family appears; the 50k point joins the gate when the
// run included it. The zone-warm-resolve point is mandatory too and must
// report exactly 0 allocs/op: the warm zone re-solve on retained cut
// pools keeps the Stage-1 zero-allocation contract with telemetry off.
func checkFleet(results map[string]result, tolerance float64) []string {
	const (
		small    = fleetPrefix + "1k"
		large    = fleetPrefix + "10k"
		huge     = fleetPrefix + "50k"
		warmZone = fleetPrefix + "zone-warm-resolve"
	)
	var failures []string
	w, okW := results[warmZone]
	switch {
	case !okW:
		failures = append(failures, warmZone+" missing from benchmark output")
	case !w.hasAllocs:
		failures = append(failures, warmZone+" has no allocs/op column (run with -benchmem or b.ReportAllocs)")
	case w.allocsPerOp != 0:
		failures = append(failures, fmt.Sprintf(
			"%s reports %g allocs/op, want 0 (warm zone re-solve broke its zero-allocation contract)",
			warmZone, w.allocsPerOp))
	}
	base, okB := results[small]
	if !okB {
		failures = append(failures, small+" missing from benchmark output")
	} else if !base.hasNsNode {
		failures = append(failures, small+" has no ns/node metric")
	}
	for _, name := range []string{large, huge} {
		r, ok := results[name]
		if !ok {
			if name == large {
				failures = append(failures, large+" missing from benchmark output")
			}
			continue // 50k is optional
		}
		switch {
		case !r.hasNsNode:
			failures = append(failures, name+" has no ns/node metric")
		case okB && base.hasNsNode && r.nsPerNode > base.nsPerNode*tolerance:
			failures = append(failures, fmt.Sprintf(
				"%s at %.0f ns/node scales worse than %s at %.0f ns/node (×%.2f, tolerance ×%.2f)",
				name, r.nsPerNode, small, base.nsPerNode, r.nsPerNode/base.nsPerNode, tolerance))
		}
	}
	return failures
}
