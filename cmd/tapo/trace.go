package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"

	"thermaldc/internal/telemetry"
)

// runTrace implements `tapo trace [lint] FILE...`: lint validates Chrome
// trace files written by `degraded -trace-out` against the exporter's
// schema; the default summary mode additionally reports span counts and
// durations by kind, the slowest LP solves, and a per-epoch critical-path
// breakdown. Summary mode lints first — a summary of a malformed trace
// would be misleading.
func runTrace(args []string) error {
	fs := flag.NewFlagSet("trace", flag.ExitOnError)
	top := fs.Int("top", 5, "slowest LP solves to list in the summary")
	if err := fs.Parse(args); err != nil {
		return err
	}
	rest := fs.Args()
	mode := "summary"
	if len(rest) > 0 && (rest[0] == "lint" || rest[0] == "summary") {
		mode = rest[0]
		rest = rest[1:]
	}
	if len(rest) == 0 {
		return errors.New("usage: tapo trace [lint|summary] FILE...")
	}
	for _, path := range rest {
		ct, err := readTraceFile(path)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if err := ct.Lint(); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		if mode == "lint" {
			fmt.Printf("%s: ok (%d events)\n", path, len(ct.TraceEvents))
			continue
		}
		fmt.Printf("%s: %d events\n", path, len(ct.TraceEvents))
		summarizeTrace(ct, *top)
	}
	return nil
}

func readTraceFile(path string) (*telemetry.ChromeTrace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return telemetry.ReadChromeTrace(f)
}

// summarizeTrace prints the three summary sections: per-kind duration
// stats, the top-N slowest LP solves, and per-epoch critical paths.
func summarizeTrace(ct *telemetry.ChromeTrace, top int) {
	type kindStat struct {
		name       string
		count      int
		total, max float64 // µs
	}
	stats := make(map[int32]*kindStat)
	var lps []telemetry.ChromeEvent
	var epochs []telemetry.ChromeEvent
	base := 0.0 // earliest ts, so the tables print offsets, not wall-clock µs
	for i, e := range ct.TraceEvents {
		if i == 0 || e.TS < base {
			base = e.TS
		}
	}
	for _, e := range ct.TraceEvents {
		ks := stats[e.Args.Kind]
		if ks == nil {
			ks = &kindStat{name: e.Name}
			stats[e.Args.Kind] = ks
		}
		ks.count++
		ks.total += e.Dur
		if e.Dur > ks.max {
			ks.max = e.Dur
		}
		switch e.Name {
		case "lp-solve":
			lps = append(lps, e)
		case "epoch":
			epochs = append(epochs, e)
		}
	}

	fmt.Println("\nspans by kind:")
	fmt.Printf("  %-12s %8s %12s %12s %12s\n", "kind", "count", "total_ms", "mean_us", "max_us")
	kinds := make([]int32, 0, len(stats))
	for k := range stats {
		kinds = append(kinds, k)
	}
	sort.Slice(kinds, func(i, j int) bool { return kinds[i] < kinds[j] })
	for _, k := range kinds {
		ks := stats[k]
		fmt.Printf("  %-12s %8d %12.3f %12.1f %12.1f\n",
			ks.name, ks.count, ks.total/1e3, ks.total/float64(ks.count), ks.max)
	}

	if len(lps) > 0 {
		if top > len(lps) {
			top = len(lps)
		}
		sort.Slice(lps, func(i, j int) bool { return lps[i].Dur > lps[j].Dur })
		fmt.Printf("\ntop %d slowest LP solves:\n", top)
		fmt.Printf("  %-12s %10s %8s %5s %5s %4s\n", "ts_ms", "dur_us", "pivots", "pid", "tid", "err")
		for _, e := range lps[:top] {
			fmt.Printf("  %-12.3f %10.1f %8d %5d %5d %4d\n",
				(e.TS-base)/1e3, e.Dur, e.Args.Pivots, e.PID, e.TID, e.Args.Err)
		}
	}

	if len(epochs) > 0 {
		fmt.Println("\nper-epoch critical path:")
		fmt.Printf("  %-4s %-6s %10s %11s %11s %9s %8s %9s\n",
			"run", "epoch", "wall_us", "control_us", "workers_us", "busiest", "solves", "pivots")
		for _, ep := range epochs {
			summarizeEpoch(ct, ep)
		}
	}
}

// summarizeEpoch prints one epoch span's critical path: its wall time,
// how much of it the control track (tid of the epoch span itself) spent
// in stage spans, the busiest parallel worker track, and the LP work the
// window contains. Containment is by time window within the epoch's pid,
// which is exactly the parentage rule of the exported format.
func summarizeEpoch(ct *telemetry.ChromeTrace, ep telemetry.ChromeEvent) {
	end := ep.TS + ep.Dur
	var controlUS float64
	workerUS := make(map[int64]float64)
	var solves, pivots int64
	for _, e := range ct.TraceEvents {
		if e.PID != ep.PID || e.TS < ep.TS || e.TS+e.Dur > end {
			continue
		}
		switch e.Name {
		case "stage":
			if e.TID == ep.TID {
				controlUS += e.Dur
			}
		case "lp-solve":
			solves++
			pivots += e.Args.Pivots
		}
		if e.TID != ep.TID {
			workerUS[e.TID] += e.Dur
		}
	}
	var busiest int64
	var busiestUS, totalWorkerUS float64
	for tid, us := range workerUS {
		totalWorkerUS += us
		if us > busiestUS {
			busiest, busiestUS = tid, us
		}
	}
	busy := "-"
	if len(workerUS) > 0 {
		busy = fmt.Sprintf("t%d", busiest)
	}
	fmt.Printf("  %-4d %-6d %10.1f %11.1f %11.1f %9s %8d %9d\n",
		ep.PID, ep.Args.Label, ep.Dur, controlUS, totalWorkerUS, busy, solves, pivots)
}
