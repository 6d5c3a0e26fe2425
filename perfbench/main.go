// Command perfbench is the repository benchmark. It runs one workload —
// fig6-trial, closed-loop or fleet-capstep, or all three in turn — for a
// fixed wall time and prints its metrics by name with their units; the
// last line of standard output is one JSON object {correct, attempted,
// failed, metrics}.
//
// An untraced run (-trace 0) reports the end-to-end metrics, its times
// scaled to a reference host speed by a calibration kernel (calib.go) and
// printed unscaled beside them. A traced run
// (-trace 1) first times ops untraced, then attaches a telemetry.Recorder
// with its span tracer on and times the same ops again: it reports the
// per-layer metrics, prints a self-time table per layer, and writes the
// spans as a Chrome trace (readable by `tapo trace summary`) to -out.
//
// Usage (from the repository root, see run.sh):
//
//	perfbench -workload fig6-trial -seed 1 -seconds 20 -trace 0 -out .bench_build
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"thermaldc/internal/telemetry"
)

// processStart approximates process start for the startup figure.
var processStart = time.Now()

// setupRuns is how many times a run sets its workload up; setup_s is the
// median.
const setupRuns = 3

// traceCapacity is the span ring size of a traced run. The traced phase
// stops early rather than let the ring overwrite spans of an op.
const traceCapacity = 1 << 18

type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string
	scale    string
	printRef bool
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload: fig6-trial, closed-loop or fleet-capstep")
	fs.Int64Var(&o.seed, "seed", 1, "seed every input of the run is made from")
	fs.Float64Var(&o.seconds, "seconds", 10, "wall time to measure ops for")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced run, 0 end-to-end metrics")
	fs.StringVar(&o.out, "out", "", "directory for the traced run's Chrome trace (empty: write none)")
	fs.StringVar(&o.scale, "scale", "paper", "workload size: paper or tiny")
	fs.BoolVar(&o.printRef, "print-reference", false, "print the reference rewards of the seed's inputs and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	specs := workloads
	if o.workload != "all" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			specs = nil
		} else {
			specs = []workloadSpec{spec}
		}
	}
	if len(specs) == 0 || (trace != 0 && trace != 1) || o.seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need -workload (fig6-trial|closed-loop|fleet-capstep|all), -trace 0|1 and positive -seconds\n")
		return 2
	}
	sc, ok := scales[o.scale]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown -scale %q\n", o.scale)
		return 2
	}
	m, err := loadMeta()
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	w := bufio.NewWriter(stdout)
	defer w.Flush()
	fail := func(err error) int {
		w.Flush()
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	// With -workload all, the workloads run in turn in this process and
	// the result line prefixes each metric with its workload's name.
	total := &result{Correct: true, Metrics: map[string]metricValue{}}
	for _, spec := range specs {
		if o.printRef {
			if err := printReference(w, spec, o.seed, sc); err != nil {
				return fail(err)
			}
			continue
		}
		res, err := bench(w, o, spec, sc, m)
		if err != nil {
			return fail(err)
		}
		if len(specs) == 1 {
			total = res
			break
		}
		total.Correct = total.Correct && res.Correct
		total.Attempted += res.Attempted
		total.Failed += res.Failed
		for k, v := range res.Metrics {
			total.Metrics[spec.name+"."+k] = v
		}
	}
	if o.printRef {
		return 0
	}
	line, err := json.Marshal(total)
	if err != nil {
		return fail(err)
	}
	fmt.Fprintf(w, "%s\n", line)
	return 0
}

// opWindow is one traced op: its wall-time window, its outside-timed layer
// calls, and the tracer sequence range of the spans it recorded.
type opWindow struct {
	start, end time.Duration
	calls      []call
	seq0, seq1 uint64
}

// phase is the outcome of one timed op loop.
type phase struct {
	opMS      []float64
	opIndex   []int     // op index of each opMS entry
	calMS     []float64 // calibrations, one before each op (untraced only)
	allocMB   []float64
	rssMB     []float64 // each op's resident high-water mark
	rewards   []float64 // rewards of ops 0..inputs-1, in order
	attempted int
	failed    int
	windows   []opWindow
}

// loop runs ops 0, 1, … on inst until seconds have passed and at least
// minOps ops were attempted. Each op is timed on its own; the untimed
// checks after it (plan verification, reference rewards) count failures.
// With cal non-nil a calibration runs before each op. With tr non-nil
// the op's spans are recorded, its per-layer counters observed, and the
// loop ends early if the span ring could overflow.
func loop(log io.Writer, inst instance, seconds float64, minOps int, refs []float64, relTol float64, tr *telemetry.Tracer, cal *calibrator) *phase {
	p := &phase{}
	epoch := time.Now()
	if tr != nil {
		epoch = tr.WallStart()
	}
	start := time.Now()
	budget := time.Duration(seconds * float64(time.Second))
	var maxSpans uint64
	for i := 0; i < minOps || time.Since(start) < budget; i++ {
		if tr != nil && i >= 1 && tr.Count()+2*maxSpans > traceCapacity {
			fmt.Fprintf(log, "note: traced phase stopped after %d ops to keep the span ring from overflowing\n", i)
			break
		}
		c := &clock{epoch: epoch}
		// Every op starts from a collected heap returned to the OS, so
		// neither its time nor its resident peak depends on what the
		// previous op left behind, and no GC work of the previous op
		// overlaps the calibration.
		debug.FreeOSMemory()
		if cal != nil {
			p.calMS = append(p.calMS, cal.run())
		}
		resetPeakRSS()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		seq0 := tr.Count()
		t0 := time.Now()
		reward, err := inst.op(i, c)
		t1 := time.Now()
		seq1 := tr.Count()
		rss := peakRSSMB()
		runtime.ReadMemStats(&m1)
		p.attempted++
		if err == nil {
			err = inst.check()
		}
		if err == nil && i < len(refs) && !closeRel(reward, refs[i], relTol) {
			err = fmt.Errorf("reward %.10g differs from reference %.10g", reward, refs[i])
		}
		if err != nil {
			p.failed++
			fmt.Fprintf(log, "op %d failed: %v\n", i, err)
			continue
		}
		if tr != nil {
			inst.observe(c)
		}
		if seq1-seq0 > maxSpans {
			maxSpans = seq1 - seq0
		}
		p.opMS = append(p.opMS, float64(t1.Sub(t0).Nanoseconds())/1e6)
		p.opIndex = append(p.opIndex, i)
		p.allocMB = append(p.allocMB, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		p.rssMB = append(p.rssMB, rss)
		if i == len(p.rewards) && i < minOps {
			p.rewards = append(p.rewards, reward)
		}
		p.windows = append(p.windows, opWindow{start: t0.Sub(epoch), end: t1.Sub(epoch), calls: c.calls, seq0: seq0, seq1: seq1})
	}
	return p
}

func closeRel(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// bench sets the workload up, runs the timed phases and returns the result
// line; the human-readable tables go to w.
func bench(w io.Writer, o options, spec workloadSpec, sc scale, m *meta) (*result, error) {
	printHost(w)
	var refs []float64
	if o.scale == "paper" {
		refs = m.Workloads[spec.name].Reference[strconv.FormatInt(o.seed, 10)]
	}

	// A calibration runs before each set-up as before each op, so the
	// run's speed factor covers set-up time too.
	cal := newCalibrator(runtime.GOMAXPROCS(0))
	var inst instance
	var setups, calMS []float64
	for r := 0; r < setupRuns; r++ {
		inst = nil
		runtime.GC()
		calMS = append(calMS, cal.run())
		t0 := time.Now()
		var err error
		if inst, err = spec.setup(o.seed, sc, spec.inputs); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	runtime.GC()
	startup := time.Since(processStart).Seconds()

	if !o.trace {
		p := loop(w, inst, o.seconds, spec.inputs, refs, m.RewardRelTol, nil, cal)
		if len(p.opMS) == 0 {
			return nil, errors.New("no op succeeded")
		}
		speed := calibRefMS / median(append(calMS, p.calMS...))
		vals := endToEndValues(p, setups, speed)
		fmt.Fprintf(w, "workload %s seed %d (%s scale): %d ops attempted, %d failed, startup %.3f s\n",
			spec.name, o.seed, o.scale, p.attempted, p.failed, startup)
		if len(refs) == 0 {
			fmt.Fprintf(w, "note: no reference rewards stored for seed %d; rewards checked by assign.Verify only\n", o.seed)
		}
		_, pct := tail(p.opMS)
		printTable(w, endToEnd, vals, map[string]string{
			"op_tail_ms": fmt.Sprintf("p%.1f of %d ops", pct, len(p.opMS)),
		})
		fmt.Fprintf(w, "  %-32s %14.4f %-9s\n", "failed_frac", float64(p.failed)/float64(p.attempted), "frac")
		fmt.Fprintf(w, "  times above are wall times x speed factor %.4f (calibration median %.3f ms, reference %.1f ms); unscaled op_p50_ms %.3f, setup_s %.4f\n",
			speed, calibRefMS/speed, calibRefMS, median(p.opMS), median(setups))
		fmt.Fprintf(w, "  op wall times (ms, in run order): %s\n", formatMS(p.opMS))
		fmt.Fprintf(w, "  calibrations (ms, in run order): %s\n", formatMS(p.calMS))
		mets, err := fill(endToEnd, vals)
		if err != nil {
			return nil, err
		}
		return &result{Correct: p.failed == 0, Attempted: p.attempted, Failed: p.failed, Metrics: mets}, nil
	}

	// Traced run: the same ops untraced, then traced, each for half the
	// time; their median ratio is the tracing overhead.
	minOps := 3
	plain := loop(w, inst, o.seconds/2, minOps, refs, m.RewardRelTol, nil, nil)
	tr := telemetry.NewTracer(traceCapacity)
	rec := telemetry.NewRecorder()
	rec.Trace = tr
	if err := inst.attach(rec); err != nil {
		return nil, err
	}
	traced := loop(w, inst, o.seconds/2, minOps, refs, m.RewardRelTol, tr, nil)
	if len(plain.opMS) == 0 || len(traced.opMS) == 0 {
		return nil, errors.New("no op succeeded")
	}
	vals := inst.layerMetrics()
	self, counts := fold(traced, tr)
	var opTotal time.Duration // self times partition the traced ops' wall time
	for _, d := range self {
		opTotal += d
	}
	for li, l := range layers {
		vals[l+".share"] = float64(self[li]) / float64(opTotal)
	}
	vals["telemetry.trace_overhead_frac"] = traceOverhead(plain, traced)

	fmt.Fprintf(w, "workload %s seed %d (%s scale), traced: op_p50_ms %.3f over %d ops untraced, %.3f over %d ops traced\n",
		spec.name, o.seed, o.scale, median(plain.opMS), len(plain.opMS), median(traced.opMS), len(traced.opMS))
	printLayerTable(w, self, traced, counts)
	printTable(w, perLayer, vals, nil)
	if o.out != "" {
		path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", spec.name, o.seed))
		if err := writeTrace(path, tr); err != nil {
			return nil, err
		}
		fmt.Fprintf(w, "chrome trace: %s (%d spans)\n", path, tr.Count())
	}
	mets, err := fill(perLayer, vals)
	if err != nil {
		return nil, err
	}
	att, failed := plain.attempted+traced.attempted, plain.failed+traced.failed
	return &result{Correct: failed == 0, Attempted: att, Failed: failed, Metrics: mets}, nil
}

// endToEndValues computes the end-to-end metrics of an untraced phase,
// its wall times multiplied by the run's speed factor.
func endToEndValues(p *phase, setups []float64, speed float64) map[string]float64 {
	total, alloc, reward := 0.0, 0.0, 0.0
	for _, v := range p.opMS {
		total += v * speed
	}
	for _, v := range p.allocMB {
		alloc += v
	}
	for _, v := range p.rewards {
		reward += v
	}
	tailMS, _ := tail(p.opMS)
	vals := map[string]float64{
		"op_p50_ms":       median(p.opMS) * speed,
		"op_tail_ms":      tailMS * speed,
		"ops_per_s":       float64(len(p.opMS)) / (total / 1e3),
		"setup_s":         median(setups) * speed,
		"alloc_mb_per_op": alloc / float64(len(p.allocMB)),
		"rss_peak_mb":     median(p.rssMB),
	}
	if len(p.rewards) > 0 {
		vals["reward_rate"] = reward / float64(len(p.rewards))
	}
	return vals
}

// traceOverhead is the median over ops run in both phases of the traced
// op's time over the untraced one, minus 1: pairing by op index keeps the
// inputs equal on both sides.
func traceOverhead(plain, traced *phase) float64 {
	untraced := map[int]float64{}
	for k, i := range plain.opIndex {
		untraced[i] = plain.opMS[k]
	}
	var ratios []float64
	for k, i := range traced.opIndex {
		if u, ok := untraced[i]; ok {
			ratios = append(ratios, traced.opMS[k]/u)
		}
	}
	if len(ratios) == 0 {
		return 0
	}
	return median(ratios) - 1
}

// fold attributes the traced ops' time to layers (see selfTimes) and
// counts their spans by kind.
func fold(p *phase, tr *telemetry.Tracer) (self []time.Duration, counts map[string]int) {
	spans := tr.Snapshot()
	self = make([]time.Duration, len(layers))
	counts = map[string]int{}
	if tr.Count() > uint64(len(spans)) {
		// The ring wrapped; keep only ops whose spans all survived.
		lost := tr.Count() - uint64(len(spans))
		kept := p.windows[:0]
		for _, win := range p.windows {
			if win.seq0 >= lost {
				kept = append(kept, win)
			}
		}
		p.windows = kept
	}
	j := 0
	for _, win := range p.windows {
		for j < len(spans) && spans[j].Seq < win.seq0 {
			j++
		}
		k := j
		for k < len(spans) && spans[k].Seq < win.seq1 {
			counts[spans[k].Kind.String()]++
			k++
		}
		for li, d := range selfTimes(win.start, win.end, win.calls, spans[j:k]) {
			self[li] += d
		}
		j = k
	}
	return self, counts
}

func writeTrace(path string, tr *telemetry.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	if err := tr.WriteChrome(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatMS(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 1, 64)
	}
	return strings.Join(parts, " ")
}

func printTable(w io.Writer, defs []metricDef, vals map[string]float64, notes map[string]string) {
	for _, d := range defs {
		fmt.Fprintf(w, "  %-32s %14.4f %-9s %s\n", d.name, vals[d.name], d.unit, notes[d.name])
	}
}

func printLayerTable(w io.Writer, self []time.Duration, p *phase, counts map[string]int) {
	n := float64(len(p.windows))
	total := 0.0
	for _, d := range self {
		total += ms(d)
	}
	fmt.Fprintf(w, "  %-12s %12s %8s\n", "layer", "self_ms/op", "share")
	for li, l := range layers {
		fmt.Fprintf(w, "  %-12s %12.3f %8.4f\n", l, ms(self[li])/n, ms(self[li])/total)
	}
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	var parts []string
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s %.1f", k, float64(counts[k])/n))
	}
	fmt.Fprintf(w, "  spans per op: %s\n", strings.Join(parts, ", "))
}

// resetPeakRSS restarts the kernel's resident high-water mark (VmHWM) from
// the current resident size, so peakRSSMB then reads the peak of one op
// rather than of the whole process. Linux only; elsewhere VmHWM is
// unavailable and rss_peak_mb reads 0.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak spans the process
}

// peakRSSMB reads the resident high-water mark (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0
			}
			return kb / 1024
		}
	}
	return 0
}

// printHost records the machine and build the numbers come from.
func printHost(w io.Writer) {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	fmt.Fprintf(w, "host: nproc=%d gomaxprocs=%d cpu=%q go=%s commit=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// printReference prints the reward rates of the seed's inputs as a
// meta.json reference entry.
func printReference(w io.Writer, spec workloadSpec, seed int64, sc scale) error {
	inst, err := spec.setup(seed, sc, spec.inputs)
	if err != nil {
		return err
	}
	var rewards []float64
	for i := 0; i < spec.inputs; i++ {
		r, err := inst.op(i, &clock{epoch: time.Now()})
		if err == nil {
			err = inst.check()
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
		rewards = append(rewards, r)
	}
	b, err := json.Marshal(rewards)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%q: %s\n", strconv.FormatInt(seed, 10), b)
	return nil
}
