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
// zero-allocation contract). The family also holds
// BenchmarkFleetReadback/10k, whose B/core — heap allocated per warm
// Stage-3 solve and core — must stay at or below 16: a plan stored by core
// group needs a 4-byte group index per core, while a dense TC matrix takes
// 8 bytes per task type per core (64 at 8 task types).
//
// Scheduler family (BenchmarkSchedulerNew/...): the paper point's B/core —
// heap allocated per second-step scheduler build and core, on the
// paper-scale plan with 8 task types — must stay at or below 64. The
// scheduler keeps its plan by core group, so a build holds the int32 ATC
// counts (4 bytes per task type and core) and little else; a per-core
// table of execution times or rates would add 8 bytes per task type.
//
// Repeated rows of one benchmark (`go test -count N`) fold into one result:
// ns/op and ns/node are gated on their median, and each folded benchmark's
// median and range are printed. An allocs/op or B/core contract holds on
// every row, so a folded benchmark keeps its largest value of each.
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
	"slices"
	"strconv"
	"strings"
)

// benchLine matches a benchmark result row: the ns/op column, then the
// "value unit" pairs of any custom metrics and the -benchmem tail. The -NN
// GOMAXPROCS suffix is folded into the name.
var benchLine = regexp.MustCompile(
	`^(Benchmark\S+)\s+(\d+)\s+([0-9.]+) ns/op((?:\s+[0-9.]+ \S+)*)`)

// result is one benchmark's rows folded together: ns/op and ns/node are
// medians over runs rows, allocs/op and B/core the largest row's.
type result struct {
	runs         int
	nsPerOp      float64
	nsPerNode    float64
	hasNsNode    bool
	allocsPerOp  float64
	hasAllocs    bool
	bytesPerCore float64
	hasBytesCore bool

	// nsRange and nsNodeRange are the smallest and largest rows.
	nsRange, nsNodeRange [2]float64
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

	printSpreads(os.Stdout, results)
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

// printSpreads reports each benchmark folded from more than one row: its
// median and range of ns/op, and of ns/node when it has that metric, and
// its largest B/core when it has that one.
func printSpreads(w io.Writer, results map[string]result) {
	names := make([]string, 0, len(results))
	for name, r := range results {
		if r.runs > 1 {
			names = append(names, name)
		}
	}
	slices.Sort(names)
	for _, name := range names {
		r := results[name]
		fmt.Fprintf(w, "benchcheck: %s: median of %d runs %.0f ns/op (range %.0f–%.0f, spread %.1f%%)",
			name, r.runs, r.nsPerOp, r.nsRange[0], r.nsRange[1], spread(r.nsPerOp, r.nsRange))
		if r.hasNsNode {
			fmt.Fprintf(w, ", %.0f ns/node (range %.0f–%.0f, spread %.1f%%)",
				r.nsPerNode, r.nsNodeRange[0], r.nsNodeRange[1], spread(r.nsPerNode, r.nsNodeRange))
		}
		if r.hasBytesCore {
			fmt.Fprintf(w, ", largest %.2f B/core", r.bytesPerCore)
		}
		fmt.Fprintln(w)
	}
}

// spread is a range's width as a percentage of its median.
func spread(median float64, rng [2]float64) float64 {
	if median == 0 {
		return 0
	}
	return 100 * (rng[1] - rng[0]) / median
}

// parse accepts either raw `go test -bench` text or the `-json` event
// stream. A JSON output event may hold only part of a result row: the
// name (`"BenchmarkX-2   \t"`) and the measurement columns
// (`"       1\t 191680596 ns/op\n"`) arrive as separate events, and with
// -count > 1 the repeats carry no Test field. So each package's Output
// fragments are joined until a newline ends the row; a row that still
// lacks the Benchmark prefix takes its name from the event's Test field.
func parse(in io.Reader) (map[string]result, error) {
	rows := make(map[string][]result)
	add := func(line string) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			return
		}
		var r result
		r.nsPerOp, _ = strconv.ParseFloat(m[3], 64)
		tail := strings.Fields(m[4])
		for i := 0; i+1 < len(tail); i += 2 {
			v, err := strconv.ParseFloat(tail[i], 64)
			if err != nil {
				continue
			}
			switch tail[i+1] {
			case "ns/node":
				r.nsPerNode, r.hasNsNode = v, true
			case "allocs/op":
				r.allocsPerOp, r.hasAllocs = v, true
			case "B/core":
				r.bytesPerCore, r.hasBytesCore = v, true
			}
		}
		name := trimProcs(m[1])
		rows[name] = append(rows[name], r)
	}
	pending := make(map[string]string) // per package: output not yet ended by a newline
	sc := bufio.NewScanner(in)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		var ev struct {
			Action  string
			Package string
			Test    string
			Output  string
		}
		if len(line) == 0 || line[0] != '{' || json.Unmarshal([]byte(line), &ev) != nil {
			add(line)
			continue
		}
		if ev.Action != "output" {
			continue
		}
		text := pending[ev.Package] + ev.Output
		if !strings.HasSuffix(text, "\n") {
			pending[ev.Package] = text
			continue
		}
		delete(pending, ev.Package)
		for _, row := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
			row = strings.TrimLeft(row, " \t")
			if !strings.HasPrefix(row, "Benchmark") &&
				strings.HasPrefix(ev.Test, "Benchmark") && strings.Contains(row, "ns/op") {
				row = ev.Test + "\t" + row
			}
			add(row)
		}
	}
	results := make(map[string]result, len(rows))
	for name, rs := range rows {
		results[name] = fold(rs)
	}
	return results, sc.Err()
}

// fold merges one benchmark's rows: the median and range of ns/op and of
// ns/node (kept only when every row reports it), and the largest
// allocs/op and B/core (each kept only when every row reports it).
func fold(rows []result) result {
	out := result{runs: len(rows), hasNsNode: true, hasAllocs: true, hasBytesCore: true}
	ns := make([]float64, 0, len(rows))
	nsNode := make([]float64, 0, len(rows))
	for _, r := range rows {
		ns = append(ns, r.nsPerOp)
		if r.hasNsNode {
			nsNode = append(nsNode, r.nsPerNode)
		} else {
			out.hasNsNode = false
		}
		if r.hasAllocs {
			out.allocsPerOp = max(out.allocsPerOp, r.allocsPerOp)
		} else {
			out.hasAllocs = false
		}
		if r.hasBytesCore {
			out.bytesPerCore = max(out.bytesPerCore, r.bytesPerCore)
		} else {
			out.hasBytesCore = false
		}
	}
	out.nsPerOp, out.nsRange = median(ns)
	if out.hasNsNode {
		out.nsPerNode, out.nsNodeRange = median(nsNode)
	}
	if !out.hasAllocs {
		out.allocsPerOp = 0
	}
	if !out.hasBytesCore {
		out.bytesPerCore = 0
	}
	return out
}

// median returns the median of xs (the mean of the middle two for an even
// count) and its smallest and largest values; it sorts xs.
func median(xs []float64) (float64, [2]float64) {
	slices.Sort(xs)
	n := len(xs)
	m := xs[n/2]
	if n%2 == 0 {
		m = (xs[n/2-1] + xs[n/2]) / 2
	}
	return m, [2]float64{xs[0], xs[n-1]}
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
	if present(results, schedPrefix) {
		checked++
		failures = append(failures, checkSched(results)...)
	}
	return failures, checked
}

const (
	simplexPrefix  = "BenchmarkThreeStagePaperScale/"
	fleetPrefix    = "BenchmarkFleetStage1/"
	readbackPrefix = "BenchmarkFleetReadback/"

	// maxReadbackBytesPerCore caps FleetReadback/10k's B/core: a 4-byte
	// group index per core plus the solve's per-group and LP scratch.
	maxReadbackBytesPerCore = 16

	schedPrefix = "BenchmarkSchedulerNew/"
	// maxSchedBytesPerCore caps SchedulerNew/paper's B/core: 8 task types'
	// int32 ATC counts (32 bytes) plus the per-type lists of core runs.
	maxSchedBytesPerCore = 64
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
// So is the 10k Stage-3 readback, whose B/core must stay at or below
// maxReadbackBytesPerCore: the plan is stored by core group, not per core.
func checkFleet(results map[string]result, tolerance float64) []string {
	const (
		small    = fleetPrefix + "1k"
		large    = fleetPrefix + "10k"
		huge     = fleetPrefix + "50k"
		warmZone = fleetPrefix + "zone-warm-resolve"
		readback = readbackPrefix + "10k"
	)
	var failures []string
	rb, okRB := results[readback]
	switch {
	case !okRB:
		failures = append(failures, readback+" missing from benchmark output")
	case !rb.hasBytesCore:
		failures = append(failures, readback+" has no B/core metric")
	case rb.bytesPerCore > maxReadbackBytesPerCore:
		failures = append(failures, fmt.Sprintf(
			"%s allocates %g B/core, want at most %d (the Stage-3 plan is no longer stored by core group)",
			readback, rb.bytesPerCore, maxReadbackBytesPerCore))
	}
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

// checkSched gates the scheduler build: SchedulerNew/paper is mandatory
// once the family appears, and its B/core must stay at or below
// maxSchedBytesPerCore, so the scheduler keeps its plan by core group.
func checkSched(results map[string]result) []string {
	const paper = schedPrefix + "paper"
	r, ok := results[paper]
	switch {
	case !ok:
		return []string{paper + " missing from benchmark output"}
	case !r.hasBytesCore:
		return []string{paper + " has no B/core metric"}
	case r.bytesPerCore > maxSchedBytesPerCore:
		return []string{fmt.Sprintf(
			"%s allocates %g B/core, want at most %d (the scheduler no longer keeps its plan by core group)",
			paper, r.bytesPerCore, maxSchedBytesPerCore)}
	}
	return nil
}
