// Package tempsearch finds good CRAC outlet-temperature vectors by
// discretized search. The paper's Stage-1 problem and the Equation-21
// baseline are NLPs only because CRAC power depends nonlinearly on the
// outlet temperatures; with the outlets fixed they become LPs. Section
// V.B.2 proposes a discretized search at 1 °C granularity, refined
// coarse-to-fine to avoid the exponential blowup in the number of CRAC
// units — exactly what this package implements, plus an exhaustive grid
// and a coordinate-descent variant for ablations.
//
// Searches enumerate each lattice (or refinement window) into a candidate
// slice and batch-evaluate it over a bounded worker pool
// (Config.Parallelism). Results are deterministic regardless of worker
// count: every candidate is evaluated independently and the reduction
// breaks objective ties toward the lexicographically smallest vector,
// which is exactly the point the historical serial scan (lexicographic
// enumeration, strict improvement) would have kept. A memoization layer
// keyed on the quantized outlet vector guarantees coarse-to-fine
// refinement rounds never re-evaluate a lattice point.
//
// Batches screen candidates before evaluating them (see Evaluator): each
// candidate whose upper bound, priced by the duals of candidates already
// solved in the search, falls strictly below the incumbent value is
// skipped, since it can neither beat nor tie the incumbent. The screen never
// changes Out or Value, and the set of candidates it skips does not depend
// on the worker count.
package tempsearch

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"runtime/pprof"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"thermaldc/internal/telemetry"
)

// Objective evaluates one outlet-temperature vector and reports its value
// and whether the configuration is feasible. Higher values are better
// (callers maximizing reward pass their objective directly; power
// minimizers pass the negated power). An Objective must be deterministic:
// the same vector must always produce the same (value, feasible) pair.
type Objective func(cracOut []float64) (value float64, feasible bool)

// Evaluator is one search worker's objective plus the weak-duality screen
// batch searches run in front of it. When the objective is the optimum of a
// maximization LP, any dual vector prices every candidate's LP from above
// without solving it; a candidate whose bound is strictly below a value
// already found cannot win, so the search skips its solve.
//
// Bound must hold for every value Eval can return (the LP evaluators in
// internal/assign fold linprog's verification margin into it), and a
// search skips a candidate only when its bound is strictly below the
// incumbent value. Evaluators with no bound return +Inf and are never
// screened.
type Evaluator interface {
	// Eval evaluates one outlet vector under the Objective contract.
	Eval(cracOut []float64) (value float64, feasible bool)
	// AppendDuals appends to dst the row duals of the LP behind the latest
	// Eval, feasible or not (every dual vector prices validly), and
	// returns the extended slice; dst is unchanged when that Eval solved
	// no LP.
	AppendDuals(dst []float64) []float64
	// SetBoundDuals prices subsequent Bound calls with the dual vector y,
	// which the caller leaves unchanged until the next SetBoundDuals. y
	// may come from any Eval of any worker's Evaluator of the same search.
	SetBoundDuals(y []float64)
	// Bound returns an upper bound on the value Eval(cracOut) can return,
	// or +Inf when it cannot bound it.
	Bound(cracOut []float64) float64
}

// Eval calls f, making every Objective an Evaluator that is never
// screened.
func (f Objective) Eval(cracOut []float64) (float64, bool) { return f(cracOut) }

// AppendDuals returns dst: an Objective has no duals.
func (Objective) AppendDuals(dst []float64) []float64 { return dst }

// SetBoundDuals does nothing: an Objective has no bound.
func (Objective) SetBoundDuals([]float64) {}

// Bound returns +Inf: an Objective has no bound.
func (Objective) Bound([]float64) float64 { return math.Inf(1) }

// Factory creates one Evaluator per search worker. Searches call it once
// per worker; Evaluators returned by distinct calls may be invoked
// concurrently, so any mutable evaluation state (e.g. an incremental LP
// solver) must be owned by the returned Evaluator, not shared.
type Factory func() Evaluator

// Shared adapts a single Objective into a Factory handing the same
// Objective to every worker. Use it only when eval is safe for concurrent
// use (pure functions of the candidate vector and read-only captures).
func Shared(eval Objective) Factory {
	return func() Evaluator { return eval }
}

// screenChunk is how many candidates a batch evaluates between bound and
// incumbent updates. Fixing it, rather than letting workers race ahead, is
// what makes the set of screened candidates independent of the worker
// count. Smaller chunks screen more (fresh duals arrive sooner) but leave
// workers idle at more chunk ends; 4 balances the two for two workers.
const screenChunk = 4

// ErrNoFeasible reports that no evaluated lattice point was feasible.
// Searches wrap it with context; callers distinguish an infeasible search
// window from configuration errors via errors.Is(err, ErrNoFeasible).
var ErrNoFeasible = errors.New("no feasible point")

// Config bounds and discretizes the search.
type Config struct {
	// Lo and Hi bound every CRAC outlet temperature in °C.
	Lo, Hi float64
	// CoarseStep is the first-pass granularity in °C.
	CoarseStep float64
	// FineStep is the final granularity in °C (paper: 1 °C).
	FineStep float64
	// Parallelism bounds the candidate-evaluation worker pool: 0 uses
	// GOMAXPROCS, 1 evaluates serially, and any request larger than
	// GOMAXPROCS is clamped down to it (see Workers) — extra workers on an
	// oversubscribed host only add scheduling overhead and once made
	// "parallel" searches lose to serial ones on small machines. Results
	// are identical for every setting.
	Parallelism int
	// Trace, when non-nil, records one telemetry.SpanCandidate span per
	// objective evaluation (label = worker index, Err = 1 for infeasible
	// candidates). Nil leaves evaluations on the untraced fast path and is
	// ignored by Validate.
	Trace *telemetry.Tracer
}

// DefaultConfig returns the search window used by the experiments:
// outlets in [5, 25] °C, coarse 5 °C pass refined down to 1 °C, with the
// worker pool sized to the machine.
func DefaultConfig() Config {
	return Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Hi < c.Lo {
		return fmt.Errorf("tempsearch: Hi %g < Lo %g", c.Hi, c.Lo)
	}
	if c.CoarseStep <= 0 || c.FineStep <= 0 {
		return fmt.Errorf("tempsearch: steps must be positive")
	}
	if c.FineStep > c.CoarseStep {
		return fmt.Errorf("tempsearch: FineStep %g > CoarseStep %g", c.FineStep, c.CoarseStep)
	}
	if c.Parallelism < 0 {
		return fmt.Errorf("tempsearch: Parallelism must be >= 0, got %d", c.Parallelism)
	}
	return nil
}

func (c Config) workers() int { return Workers(c.Parallelism) }

// Workers is the worker-count policy shared by every fan-out in the solve
// pipeline (candidate searches here, per-zone LP fan-outs in
// internal/zones): a requested parallelism of 0 means "use the machine"
// and any positive request is clamped to runtime.GOMAXPROCS(0), so a
// worker pool never holds more runnable goroutines than the scheduler has
// processors. The clamp auto-degrades parallel configurations to the
// serial path on single-CPU hosts, where extra workers can only lose.
func Workers(requested int) int {
	max := runtime.GOMAXPROCS(0)
	if requested > 0 && requested < max {
		return requested
	}
	return max
}

// Result is the outcome of a search.
type Result struct {
	// Out is the best outlet-temperature vector found.
	Out []float64
	// Value is the objective at Out.
	Value float64
	// Evals counts the distinct candidates the search visited (memoized
	// hits are not re-counted), whether evaluated or screened out.
	Evals int
	// Solved counts the visited candidates whose objective was actually
	// evaluated; Evals − Solved were screened out by their bound.
	Solved int
}

// Grid exhaustively evaluates the lattice with the given step and returns
// the best feasible point. It is exponential in the number of CRACs and
// exists as the ground truth for ablations on small instances.
func Grid(ncrac int, cfg Config, step float64, newEval Factory) (Result, error) {
	return GridContext(context.Background(), ncrac, cfg, step, newEval)
}

// GridContext is Grid under cooperative cancellation: a done context stops
// the worker pool between candidate evaluations and returns an error
// matching ctx.Err() via errors.Is. Uncancelled runs return exactly what
// Grid returns.
func GridContext(ctx context.Context, ncrac int, cfg Config, step float64, newEval Factory) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := newSearcher(ctx, ncrac, cfg, newEval)
	return s.grid(step)
}

// CoarseToFine implements the paper's multi-step search: a coarse lattice
// pass over the full window, then repeated refinement around the incumbent
// with the step halved until FineStep is reached. Lattice points shared
// between rounds are evaluated once (memoized), and Evals counts every
// actual evaluation including those of refinement rounds.
func CoarseToFine(ncrac int, cfg Config, newEval Factory) (Result, error) {
	return CoarseToFineContext(context.Background(), ncrac, cfg, newEval)
}

// CoarseToFineContext is CoarseToFine under cooperative cancellation (see
// GridContext).
func CoarseToFineContext(ctx context.Context, ncrac int, cfg Config, newEval Factory) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	s := newSearcher(ctx, ncrac, cfg, newEval)
	res, err := s.grid(cfg.CoarseStep)
	if err != nil {
		return res, err
	}
	step := cfg.CoarseStep
	for step > cfg.FineStep {
		next := step / 2
		if next < cfg.FineStep {
			next = cfg.FineStep
		}
		// Refine ±next around the incumbent on the finer lattice (3 levels
		// per CRAC per round keeps the eval count linear in the number of
		// rounds instead of exponential in the refinement ratio).
		cands := s.window(res.Out, next, next)
		idx, v, ok, err := s.batch(cands, res.Value)
		res.Evals, res.Solved = s.evals, s.solved // exact accounting even when the window fails
		if err != nil {
			return res, err
		}
		if ok && v >= res.Value {
			res.Out = append(res.Out[:0], cands[idx]...)
			res.Value = v
		}
		// !ok cannot happen with a deterministic objective — the incumbent
		// is itself a window point and memoized feasible — so an infeasible
		// window simply keeps the incumbent instead of discarding the
		// search (the historical code dropped both the error and the
		// refinement eval count here).
		step = next
	}
	return res, nil
}

// CoordinateDescent optimizes one CRAC outlet at a time on the FineStep
// lattice, sweeping until no coordinate improves. It is the cheapest
// strategy and the paper-scale default ablation point. The sweep order is
// inherently sequential, so it runs on a single worker.
func CoordinateDescent(ncrac int, cfg Config, start []float64, newEval Factory) (Result, error) {
	return CoordinateDescentContext(context.Background(), ncrac, cfg, start, newEval)
}

// CoordinateDescentContext is CoordinateDescent under cooperative
// cancellation: the context is checked before every coordinate scan.
func CoordinateDescentContext(ctx context.Context, ncrac int, cfg Config, start []float64, newEval Factory) (Result, error) {
	if err := cfg.Validate(); err != nil {
		return Result{}, err
	}
	eval := newEval()
	out := make([]float64, ncrac)
	if start != nil {
		copy(out, start)
	} else {
		for i := range out {
			out[i] = (cfg.Lo + cfg.Hi) / 2
		}
	}
	res := Result{Value: math.Inf(-1)}
	if v, ok := eval.Eval(out); ok {
		res.Value = v
		res.Out = append([]float64(nil), out...)
	}
	res.Evals = 1
	levels := latticeLevels(cfg.Lo, cfg.Hi, cfg.FineStep)
	for sweep := 0; sweep < 50; sweep++ {
		improved := false
		for i := 0; i < ncrac; i++ {
			if err := ctx.Err(); err != nil {
				res.Solved = res.Evals
				return res, fmt.Errorf("tempsearch: coordinate descent canceled: %w", err)
			}
			savedVal := out[i]
			bestT, bestV := savedVal, res.Value
			for _, t := range levels {
				out[i] = t
				v, ok := eval.Eval(out)
				res.Evals++
				if ok && v > bestV {
					bestT, bestV = t, v
				}
			}
			out[i] = bestT
			if bestV > res.Value {
				res.Value = bestV
				res.Out = append(res.Out[:0], out...)
				improved = true
			}
		}
		if !improved {
			break
		}
	}
	res.Solved = res.Evals
	if res.Out == nil {
		return res, fmt.Errorf("tempsearch: coordinate descent found no feasible point: %w", ErrNoFeasible)
	}
	return res, nil
}

// memoEntry caches one visited lattice point. A screened point is recorded
// as not feasible: its bound was strictly below an incumbent of the same
// search, and incumbents only improve, so it can never win a later round.
type memoEntry struct {
	value    float64
	feasible bool
}

// searcher owns the evaluation machinery of one search call: the memo
// table, the visit and solve counters, one Evaluator per worker, the
// incumbent's duals, and the context that can cancel the whole search
// between evaluations.
type searcher struct {
	ctx     context.Context
	ncrac   int
	cfg     Config
	factory Factory
	objs    []Evaluator
	memo    map[string]memoEntry
	evals   int
	solved  int
	keyBuf  []byte

	// incDuals are the duals of the best candidate solved so far in this
	// search (empty until one reports duals); they price a batch's points
	// before it solves any. slots[k] captures the duals of the k-th
	// candidate of the current chunk.
	incDuals []float64
	slots    [screenChunk][]float64
}

func newSearcher(ctx context.Context, ncrac int, cfg Config, newEval Factory) *searcher {
	return &searcher{
		ctx:     ctx,
		ncrac:   ncrac,
		cfg:     cfg,
		factory: newEval,
		memo:    make(map[string]memoEntry),
	}
}

// key quantizes an outlet vector to 1e-6 °C and encodes it as a memo key;
// every lattice this package generates is far coarser than the quantum.
func (s *searcher) key(out []float64) string {
	b := s.keyBuf[:0]
	for _, t := range out {
		q := uint64(int64(math.Round(t * 1e6)))
		b = append(b, byte(q), byte(q>>8), byte(q>>16), byte(q>>24),
			byte(q>>32), byte(q>>40), byte(q>>48), byte(q>>56))
	}
	s.keyBuf = b
	return string(b)
}

// tracedEval records one SpanCandidate span per evaluation of the wrapped
// Evaluator; the tracer is internally synchronized, so concurrent workers
// may share it.
type tracedEval struct {
	Evaluator
	tr     *telemetry.Tracer
	worker int32
}

func (e tracedEval) Eval(out []float64) (float64, bool) {
	clk := e.tr.Begin()
	v, ok := e.Evaluator.Eval(out)
	var code int32
	if !ok {
		code = 1
	}
	// Track = worker puts each worker's candidates on its own timeline
	// lane in exported Chrome traces.
	e.tr.EndOnTrack(clk, telemetry.SpanCandidate, e.worker, e.worker, 0, code)
	return v, ok
}

// obj returns the w-th worker Evaluator, creating workers lazily. With
// tracing configured each worker's Evaluator records one SpanCandidate span
// per evaluation.
func (s *searcher) obj(w int) Evaluator {
	for len(s.objs) <= w {
		eval := s.factory()
		if tr := s.cfg.Trace; tr != nil {
			eval = tracedEval{Evaluator: eval, tr: tr, worker: int32(len(s.objs))}
		}
		s.objs = append(s.objs, eval)
	}
	return s.objs[w]
}

// batch visits every candidate and reduces to the best feasible index.
// Memoized points are looked up; fresh points are screened and the rest
// evaluated over the worker pool. Ties on the objective keep the earliest
// candidate, which is the lexicographically smallest vector because
// candidates are enumerated in lexicographic order — so the outcome is
// independent of worker count.
//
// Screening: incumbent is the best value already found in this comparison
// (−Inf for none; CoarseToFine passes the value its window is centred on).
// Every fresh point carries the least bound any dual vector seen so far
// gives it: the incumbent's duals when the batch starts, then the duals of
// each candidate the batch solves. Points are taken in descending bound
// order (ties by candidate index), screenChunk at a time, and a point whose
// bound is strictly below the incumbent is skipped: it can neither beat nor
// tie it, so the reduction is unchanged. Bounds, order and incumbent change
// only between chunks, which keeps the set of skipped points independent of
// worker count.
//
// Cancellation: each worker re-checks the context before claiming the next
// candidate, so a canceled batch stops within one evaluation per worker,
// every goroutine exits (no leaks — wg.Wait always returns), and the
// returned error matches the context error via errors.Is. Nothing is
// memoized from a canceled batch: partially filled results must not
// poison a later retry of the same search window.
func (s *searcher) batch(cands [][]float64, incumbent float64) (bestIdx int, bestVal float64, found bool, err error) {
	results := make([]memoEntry, len(cands))
	var fresh []int
	for i, c := range cands {
		if e, ok := s.memo[s.key(c)]; ok {
			results[i] = e
		} else {
			fresh = append(fresh, i)
		}
	}

	bounds := make([]float64, len(cands))
	for _, i := range fresh {
		bounds[i] = math.Inf(1)
	}
	if len(s.incDuals) > 0 {
		s.tighten(cands, fresh, bounds, s.incDuals, incumbent)
		sortByBound(fresh, bounds)
	}
	chunk := make([]int, 0, screenChunk)
	for pos := 0; pos < len(fresh); {
		chunk = chunk[:0]
		for pos < len(fresh) && len(chunk) < screenChunk {
			i := fresh[pos]
			pos++
			if bounds[i] < incumbent {
				continue // results[i] stays the not-feasible zero entry
			}
			chunk = append(chunk, i)
		}
		if len(chunk) == 0 {
			break
		}
		ran, err := s.evalChunk(cands, chunk, results)
		s.solved += ran
		if err != nil {
			s.evals += pos - len(chunk) + ran // count only what actually ran
			return -1, 0, false, err
		}
		win := -1
		for k, i := range chunk {
			if r := results[i]; r.feasible && r.value > incumbent &&
				(win < 0 || r.value > results[chunk[win]].value) {
				win = k
			}
		}
		if win >= 0 {
			incumbent = results[chunk[win]].value
			if len(s.slots[win]) > 0 {
				s.incDuals = append(s.incDuals[:0], s.slots[win]...)
			}
		}
		rest, tightened := fresh[pos:], false
		for k := range chunk {
			if len(s.slots[k]) > 0 && len(rest) > 0 {
				s.tighten(cands, rest, bounds, s.slots[k], incumbent)
				tightened = true
			}
		}
		if tightened {
			sortByBound(rest, bounds)
		}
	}
	s.evals += len(fresh)
	for _, i := range fresh {
		s.memo[s.key(cands[i])] = results[i]
	}

	bestIdx, bestVal = -1, math.Inf(-1)
	for i, r := range results {
		if r.feasible && r.value > bestVal {
			bestIdx, bestVal = i, r.value
		}
	}
	return bestIdx, bestVal, bestIdx >= 0, nil
}

// tighten lowers bounds[i], i ∈ idx, to the bound the dual vector y gives
// cands[i]. A point already bounded below the incumbent is screened
// whatever its bound, since incumbents only rise, so it is not re-priced.
// Bounds come from worker 0's Evaluator, which no goroutine uses between
// chunks; every worker's Evaluator prices alike.
func (s *searcher) tighten(cands [][]float64, idx []int, bounds []float64, y []float64, incumbent float64) {
	eval := s.obj(0)
	eval.SetBoundDuals(y)
	for _, i := range idx {
		if bounds[i] < incumbent {
			continue
		}
		if b := eval.Bound(cands[i]); b < bounds[i] {
			bounds[i] = b
		}
	}
}

// sortByBound orders idx by descending bound, ties by candidate index.
func sortByBound(idx []int, bounds []float64) {
	slices.SortFunc(idx, func(a, b int) int {
		if c := cmp.Compare(bounds[b], bounds[a]); c != 0 {
			return c
		}
		return a - b
	})
}

// evalChunk evaluates cands[i] for every i in chunk, fanning out over the
// worker pool, and records each candidate's duals (if its Evaluator has
// any) in the slot of its chunk position. It returns how many candidates
// ran, which is short of len(chunk) only when the context was canceled.
func (s *searcher) evalChunk(cands [][]float64, chunk []int, results []memoEntry) (int, error) {
	ctx := s.ctx
	run := func(eval Evaluator, k int) {
		i := chunk[k]
		v, ok := eval.Eval(cands[i])
		results[i] = memoEntry{value: v, feasible: ok}
		s.slots[k] = eval.AppendDuals(s.slots[k][:0])
	}
	workers := s.cfg.workers()
	if workers > len(chunk) {
		workers = len(chunk)
	}
	if workers <= 1 {
		eval := s.obj(0)
		for k := range chunk {
			if ctx.Err() != nil {
				return k, fmt.Errorf("tempsearch: search canceled: %w", ctx.Err())
			}
			run(eval, k)
		}
		return len(chunk), nil
	}
	for w := 0; w < workers; w++ {
		s.obj(w) // materialize outside the goroutines
	}
	var next, ran int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int, eval Evaluator) {
			defer wg.Done()
			// pprof labels attribute -cpuprofile samples to the search
			// stage and worker lane.
			pprof.Do(ctx, pprof.Labels("stage", "tempsearch", "worker", strconv.Itoa(w)), func(ctx context.Context) {
				for ctx.Err() == nil {
					k := int(atomic.AddInt64(&next, 1)) - 1
					if k >= len(chunk) {
						return
					}
					run(eval, k)
					atomic.AddInt64(&ran, 1)
				}
			})
		}(w, s.objs[w])
	}
	wg.Wait()
	if cerr := ctx.Err(); cerr != nil {
		return int(ran), fmt.Errorf("tempsearch: search canceled: %w", cerr)
	}
	return len(chunk), nil
}

// grid batch-evaluates the full lattice with the given step.
func (s *searcher) grid(step float64) (Result, error) {
	levels := latticeLevels(s.cfg.Lo, s.cfg.Hi, step)
	perDim := make([][]float64, s.ncrac)
	for i := range perDim {
		perDim[i] = levels
	}
	cands := enumerate(perDim)
	idx, v, ok, err := s.batch(cands, math.Inf(-1))
	if err != nil {
		return Result{Evals: s.evals, Solved: s.solved}, err
	}
	if !ok {
		return Result{Evals: s.evals, Solved: s.solved},
			fmt.Errorf("tempsearch: no feasible outlet assignment on the grid: %w", ErrNoFeasible)
	}
	return Result{
		Out:    append([]float64(nil), cands[idx]...),
		Value:  v,
		Evals:  s.evals,
		Solved: s.solved,
	}, nil
}

// window enumerates the lattice of the given step within ±radius of
// center, clamped to [cfg.Lo, cfg.Hi].
func (s *searcher) window(center []float64, radius, step float64) [][]float64 {
	perDim := make([][]float64, s.ncrac)
	for i := range perDim {
		lo := math.Max(s.cfg.Lo, center[i]-radius)
		hi := math.Min(s.cfg.Hi, center[i]+radius)
		perDim[i] = latticeLevels(lo, hi, step)
	}
	return enumerate(perDim)
}

// enumerate returns the cartesian product of the per-dimension levels in
// lexicographic order.
func enumerate(perDim [][]float64) [][]float64 {
	total := 1
	for _, levels := range perDim {
		total *= len(levels)
	}
	cands := make([][]float64, 0, total)
	out := make([]float64, len(perDim))
	var walk func(i int)
	walk = func(i int) {
		if i == len(perDim) {
			cands = append(cands, append([]float64(nil), out...))
			return
		}
		for _, t := range perDim[i] {
			out[i] = t
			walk(i + 1)
		}
	}
	walk(0)
	return cands
}

// latticeLevels returns lo, lo+step, ..., hi (hi always included).
func latticeLevels(lo, hi, step float64) []float64 {
	var out []float64
	for t := lo; t < hi+1e-9; t += step {
		out = append(out, math.Min(t, hi))
	}
	if len(out) == 0 || out[len(out)-1] < hi-1e-9 {
		out = append(out, hi)
	}
	return out
}
