// Package sim runs the second-step discrete-event simulation: a Poisson
// task stream flows through the dynamic scheduler onto the cores fixed by
// the first-step assignment, and the realized reward rate is compared to
// the Stage-3 steady-state prediction. Cores execute non-preemptively in
// FIFO order, so a core's state is simply its earliest free time.
package sim

import (
	"fmt"
	"math"

	"thermaldc/internal/model"
	"thermaldc/internal/sched"
	"thermaldc/internal/workload"
)

// Result summarizes one simulation run.
type Result struct {
	// Horizon is the length of the simulated arrival window in seconds
	// (horizon − Options.Start); every rate below divides by it.
	Horizon float64
	// TotalReward is the reward collected from every admitted task (all
	// admitted tasks meet their deadlines); RewardRate = TotalReward /
	// Horizon. Tasks admitted near the end of the horizon may complete
	// after it, so this slightly overstates sustainable throughput for
	// policies that build deep queues.
	TotalReward float64
	RewardRate  float64
	// WindowReward counts only tasks that *complete* within the horizon;
	// WindowRewardRate = WindowReward / Horizon is the fair
	// apples-to-apples number against the Stage-3 steady-state prediction
	// (no borrowing of post-horizon capacity).
	WindowReward     float64
	WindowRewardRate float64
	// Completed and Dropped count tasks; dropped tasks never start.
	Completed, Dropped int
	// Lost counts tasks the scheduler placed but a fault destroyed (the
	// host node died before the task completed, per Options.Lost). Lost
	// tasks occupy their core — the work is wasted — but earn no reward.
	Lost int
	// CompletedByType and DroppedByType break the counts down per task
	// type.
	CompletedByType, DroppedByType []int
	// MeanRatioError is the mean of |ATC(i,k)/TC(i,k) − 1| over entries
	// with TC > 0: how closely the dynamic scheduler tracked the desired
	// rates.
	MeanRatioError float64
	// BusyFraction is the core-time-weighted utilization across all cores
	// over the horizon.
	BusyFraction float64
	// MaxPower, MaxPowerExcess and MaxInletExcess are the worst plant
	// observations over the run: peak facility power (kW), peak power
	// above the cap in force (kW, ≤ 0 means the cap always held), and
	// peak inlet temperature above its redline (°C, ≤ 0 means every
	// redline always held). Populated only when Options.Plant is set;
	// the excess fields are −Inf when a plant reports no samples.
	MaxPower       float64
	MaxPowerExcess float64
	MaxInletExcess float64

	// counts aliases the run's scheduler's assignment counts (see
	// sched.Scheduler.LiveCounts) over ncores cores; ATC reads them.
	counts []int32
	ncores int
}

// ATC returns the achieved execution rate of task type task on core over
// the window: the tasks the run's scheduler assigned there per second. It
// reads the scheduler's counts, so a scheduler passed in Options.Scheduler
// and used again afterwards moves it; a Result built by hand reads 0.
func (r *Result) ATC(task, core int) float64 {
	if r.counts == nil {
		return 0
	}
	return float64(r.counts[task*r.ncores+core]) / r.Horizon
}

// TaskRecord is one trace entry: the fate of a single task.
type TaskRecord struct {
	ID       int
	Type     int
	Arrival  float64
	Deadline float64
	// Dropped tasks have Core = -1 and zero Start/Completion.
	Dropped bool
	// Lost tasks were placed on a core whose node died before completion.
	Lost              bool
	Core              int
	Start, Completion float64
}

// Options tunes a simulation run beyond the defaults.
type Options struct {
	// Policy overrides the paper's min-ratio scheduling rule (nil = paper).
	Policy sched.Policy
	// Recorder, when non-nil, receives one TaskRecord per task in arrival
	// order (the simulation trace).
	Recorder func(TaskRecord)
	// Start is the beginning of the simulated window; the horizon argument
	// is its end, so rates divide by horizon − Start. Epoch-controller runs
	// simulate [epoch start, epoch end) slices of one long task stream.
	Start float64
	// Scheduler, when non-nil, is used instead of a freshly built one —
	// the epoch controller carries one scheduler (and its ATC clock, via
	// SetStartTime) across a re-optimization boundary, and a caller
	// holding a plan by core group builds it with sched.New. The caller
	// must have built it against the same core layout as dc. The run then
	// reads the plan from it, and RunOpts' pstates and tc may be nil.
	Scheduler *sched.Scheduler
	// FreeAt, when non-nil, is the per-core earliest-free-time state,
	// mutated in place so core occupancy persists across per-epoch runs.
	FreeAt []float64
	// Hooks fire in time order as the simulation clock passes each
	// Hook.Time (see Hook). They must already be sorted by Time.
	Hooks []Hook
	// Plant, when non-nil, is sampled at the window start and after every
	// hook firing; the maxima land in Result.MaxPower/MaxPowerExcess/
	// MaxInletExcess.
	Plant Plant
	// Lost, when non-nil, classifies each placed task: returning true
	// voids the task's reward (a fault destroys it) while the core stays
	// occupied. The fault layer supplies the node-failure timeline here.
	Lost func(core int, start, completion float64) bool
}

// Run simulates the task stream against the first-step assignment
// (pstates + the dense TC, grouped by sched.Group) with the paper's
// scheduling policy.
func Run(dc *model.DataCenter, pstates []int, tc [][]float64, tasks []workload.Task, horizon float64) (*Result, error) {
	return RunOpts(dc, pstates, tc, tasks, horizon, Options{})
}

// RunOpts is the fully configurable entry point.
func RunOpts(dc *model.DataCenter, pstates []int, tc [][]float64, tasks []workload.Task, horizon float64, opts Options) (*Result, error) {
	// window is the divisor of every rate field; a zero-length window
	// would turn RewardRate and friends into NaN, so it is rejected here
	// (and rate() below guards the division anyway, for defense in depth).
	window := horizon - opts.Start
	if horizon <= 0 || window <= 0 {
		return nil, fmt.Errorf("sim: window [%g, %g) must have positive length", opts.Start, horizon)
	}
	// A NaN bound sails through the <= comparisons above and would poison
	// every rate; reject it explicitly.
	if math.IsNaN(window) || math.IsInf(window, 0) {
		return nil, fmt.Errorf("sim: window [%g, %g) must be finite", opts.Start, horizon)
	}
	for i := 1; i < len(opts.Hooks); i++ {
		if opts.Hooks[i].Time < opts.Hooks[i-1].Time {
			return nil, fmt.Errorf("sim: hooks not sorted by time at index %d", i)
		}
	}
	policy := opts.Policy
	if policy == nil {
		policy = sched.PaperPolicy{}
	}
	s := opts.Scheduler
	if s == nil {
		var err error
		s, err = sched.NewDense(dc, pstates, tc)
		if err != nil {
			return nil, err
		}
	}
	ncores := dc.NumCores()
	freeAt := opts.FreeAt
	if freeAt == nil {
		freeAt = make([]float64, ncores)
	} else if len(freeAt) != ncores {
		return nil, fmt.Errorf("sim: FreeAt has %d cores, want %d", len(freeAt), ncores)
	}
	busy := make([]float64, ncores)

	res := &Result{
		Horizon:         window,
		CompletedByType: make([]int, dc.T()),
		DroppedByType:   make([]int, dc.T()),
	}
	if opts.Plant != nil {
		res.MaxPowerExcess = math.Inf(-1)
		res.MaxInletExcess = math.Inf(-1)
		res.observe(opts.Plant.Sample(opts.Start))
	}
	nextHook := 0
	fire := func(upTo float64) {
		for nextHook < len(opts.Hooks) && opts.Hooks[nextHook].Time <= upTo {
			h := opts.Hooks[nextHook]
			nextHook++
			if h.Fire != nil {
				h.Fire(h.Time)
			}
			if opts.Plant != nil {
				res.observe(opts.Plant.Sample(h.Time))
			}
		}
	}
	for _, task := range tasks {
		if task.Type < 0 || task.Type >= dc.T() {
			return nil, fmt.Errorf("sim: task %d has unknown type %d", task.ID, task.Type)
		}
		if math.IsNaN(task.Arrival) || math.IsInf(task.Arrival, 0) {
			return nil, fmt.Errorf("sim: task %d has non-finite arrival %g", task.ID, task.Arrival)
		}
		fire(task.Arrival)
		core, completion, ok := s.ScheduleWith(policy, task, task.Arrival, freeAt)
		if !ok {
			res.Dropped++
			res.DroppedByType[task.Type]++
			if opts.Recorder != nil {
				opts.Recorder(TaskRecord{
					ID: task.ID, Type: task.Type, Arrival: task.Arrival,
					Deadline: task.Deadline, Dropped: true, Core: -1,
				})
			}
			continue
		}
		start := math.Max(task.Arrival, freeAt[core])
		busy[core] += completion - start
		// The only freeAt write between two ScheduleWith calls, to the
		// core just returned, as the scheduler's dispatch index requires.
		freeAt[core] = completion
		if opts.Lost != nil && opts.Lost(core, start, completion) {
			res.Lost++
			if opts.Recorder != nil {
				opts.Recorder(TaskRecord{
					ID: task.ID, Type: task.Type, Arrival: task.Arrival,
					Deadline: task.Deadline, Lost: true, Core: core, Start: start, Completion: completion,
				})
			}
			continue
		}
		// The scheduler only assigns when the deadline is met, so the
		// reward is always collected.
		res.TotalReward += dc.TaskTypes[task.Type].Reward
		if completion <= horizon {
			res.WindowReward += dc.TaskTypes[task.Type].Reward
		}
		res.Completed++
		res.CompletedByType[task.Type]++
		if opts.Recorder != nil {
			opts.Recorder(TaskRecord{
				ID: task.ID, Type: task.Type, Arrival: task.Arrival,
				Deadline: task.Deadline, Core: core, Start: start, Completion: completion,
			})
		}
	}
	fire(horizon)
	res.RewardRate = rate(res.TotalReward, window)
	res.WindowRewardRate = rate(res.WindowReward, window)
	res.counts, res.ncores = s.LiveCounts(), ncores

	// Desired-rate tracking error.
	n := 0
	for i := 0; i < dc.T(); i++ {
		for k := 0; k < ncores; k++ {
			tc := s.Rate(i, k)
			if tc <= 0 {
				continue
			}
			res.MeanRatioError += math.Abs(res.ATC(i, k)/tc - 1)
			n++
		}
	}
	if n > 0 {
		res.MeanRatioError /= float64(n)
	}
	total := 0.0
	for _, b := range busy {
		total += b
	}
	res.BusyFraction = rate(total, float64(ncores)*window)
	return res, nil
}

// rate divides, returning 0 instead of NaN/Inf on a degenerate window so
// Result rate fields never poison downstream summaries.
func rate(sum, window float64) float64 {
	if window <= 0 {
		return 0
	}
	return sum / window
}
