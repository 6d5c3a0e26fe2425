package assign_test

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/zones"
)

func warmScenario(t *testing.T, seed int64, nnodes, ncracs int) *scenario.Scenario {
	t.Helper()
	cfg := scenario.Default(0.3, 0.1, seed)
	cfg.NNodes, cfg.NCracs = nnodes, ncracs
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sc
}

func bitsEq(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestScratchSolveMatchesSolve drives the allocating and the
// scratch Stage-1 solve over the same outlet vectors (on identically built
// solvers, so the pivot history matches) and requires every output to be
// bit-identical, including the infeasible corners.
func TestScratchSolveMatchesSolve(t *testing.T) {
	sc := warmScenario(t, 5, 20, 2)
	arrs := buildARRs(t, sc, 50)
	ref := assign.NewStage1Solver(sc.DC, sc.Thermal, arrs)
	scr := assign.NewStage1Solver(sc.DC, sc.Thermal, arrs)

	search := tempsearch.DefaultConfig()
	lo, hi := search.Lo, search.Hi
	rng := stats.NewRand(77)
	for trial := 0; trial < 25; trial++ {
		out := make([]float64, sc.DC.NCRAC())
		for i := range out {
			out[i] = lo + (hi-lo)*rng.Float64()
		}
		want, errW := ref.Solve(context.Background(), out)
		got, errG := scr.SolveScratch(context.Background(), out)
		if (errW == nil) != (errG == nil) {
			t.Fatalf("trial %d: err mismatch: %v vs %v", trial, errW, errG)
		}
		if got.Feasible != want.Feasible {
			t.Fatalf("trial %d: feasible %v vs %v", trial, got.Feasible, want.Feasible)
		}
		if errW != nil {
			continue
		}
		if !bitsEq(got.PredictedARR, want.PredictedARR) ||
			!bitsEq(got.TotalPower, want.TotalPower) ||
			!bitsEq(got.ComputePower, want.ComputePower) ||
			!bitsEq(got.CRACPower, want.CRACPower) ||
			!bitsEq(got.PowerShadowPrice, want.PowerShadowPrice) {
			t.Fatalf("trial %d: scalar fields differ: %+v vs %+v", trial, got, want)
		}
		for j := range want.NodePower {
			if !bitsEq(got.NodePower[j], want.NodePower[j]) || !bitsEq(got.NodeCorePower[j], want.NodeCorePower[j]) {
				t.Fatalf("trial %d node %d: power %v vs %v", trial, j, got.NodePower[j], want.NodePower[j])
			}
		}
		for i := range want.CracOut {
			if !bitsEq(got.CracOut[i], want.CracOut[i]) {
				t.Fatalf("trial %d: CracOut differ", trial)
			}
		}
	}
}

// TestScratchSolveWarmZeroAllocs pins the scratch path's contract: once
// warmed, alternating outlet candidates through SolveScratch — exactly
// what every temperature-search worker does thousands of times per epoch —
// performs zero heap allocations.
func TestScratchSolveWarmZeroAllocs(t *testing.T) {
	sc := warmScenario(t, 5, 20, 2)
	arrs := buildARRs(t, sc, 50)
	s := assign.NewStage1Solver(sc.DC, sc.Thermal, arrs)

	search := tempsearch.DefaultConfig()
	mid := (search.Lo + search.Hi) / 2
	outs := [][]float64{
		{mid, mid},
		{mid - 1, mid + 1},
	}
	for _, out := range outs {
		if res, err := s.SolveScratch(context.Background(), out); err != nil || !res.Feasible {
			t.Fatalf("warm-up solve at %v: %v (feasible=%v)", out, err, res != nil && res.Feasible)
		}
	}
	i := 0
	allocs := testing.AllocsPerRun(30, func() {
		out := outs[i%2]
		i++
		if _, err := s.SolveScratch(context.Background(), out); err != nil {
			t.Fatalf("scratch solve: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("warm SolveScratch allocates %.1f objects/op, want 0", allocs)
	}
}

// TestStage3SolverMatchesOneShot checks the Stage-3 solver against the
// map-keyed one-shot oracle bit for bit, across P-state vectors that
// exercise both the patch path (repeated signature) and the rebuild path
// (new signature), on a 20-node data center and on a 2-zone fleet.
func TestStage3SolverMatchesOneShot(t *testing.T) {
	sc := warmScenario(t, 9, 20, 2)
	ncores := sc.DC.NumCores()

	allZero := make([]int, ncores)
	mixed := make([]int, ncores)
	for k := range mixed {
		mixed[k] = k % 2
	}
	shifted := make([]int, ncores)
	for k := range shifted {
		shifted[k] = 1
	}
	// Same signatures as mixed but different counts: patch, not rebuild.
	mixed2 := make([]int, ncores)
	for k := range mixed2 {
		mixed2[k] = (k / 3) % 2
	}

	vectors := [][]int{allZero, mixed, mixed, mixed2, shifted, allZero}
	warm := checkStage3MatchesOneShot(t, sc.DC, vectors)
	// The cache holds the last signature only: allZero, mixed, shifted and
	// the trailing allZero each rebuild, while the mixed repeat and mixed2
	// (same signature, different counts) must hit the patch path.
	if rb := warm.Rebuilds(); rb != 4 {
		t.Fatalf("Rebuilds = %d, want 4 (repeat signatures must patch, not rebuild)", rb)
	}
	if st := warm.TakeStats(); st.Solves != int64(len(vectors)) {
		t.Fatalf("Stats.Solves = %d, want %d", st.Solves, len(vectors))
	}

	// Fleet shape: a 2-zone × 10-node assembled fleet with both node
	// types, under vectors that turn whole node types off and leave
	// (type, P-state) cells empty.
	f, err := zones.BuildFleet(zones.FleetConfig{Zones: 2, NodesPerZone: 10, CracsPerZone: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	// vec returns the per-core P-states ps(type, k), clamped to off.
	vec := func(ps func(typ, k int) int) []int {
		out := make([]int, 0, dc.NumCores())
		for j, node := range dc.Nodes {
			off := dc.NodeType(j).OffState()
			for range dc.NodeType(j).NumCores {
				out = append(out, min(ps(node.Type, len(out)), off))
			}
		}
		return out
	}
	seen := map[int]bool{}
	for _, node := range dc.Nodes {
		seen[node.Type] = true
	}
	if len(seen) != 2 {
		t.Fatalf("fleet uses %d node types, want 2", len(seen))
	}
	const off = 1 << 20 // clamped to each type's off state
	fleetVectors := [][]int{
		vec(func(_, k int) int { return k % 3 }),                           // P-state 3 empty everywhere
		vec(func(_, k int) int { return (k / 5) % 3 }),                     // same cells, new counts: patch
		vec(func(typ, k int) int { return [2]int{off, k % 2}[typ] }),       // type 0 off
		vec(func(typ, k int) int { return [2]int{0, off}[typ] }),           // type 1 off
		vec(func(typ, k int) int { return [2]int{2 * (k % 2), off}[typ] }), // (0, 1) empty
		vec(func(_, _ int) int { return off }),                             // no groups at all
		vec(func(_, k int) int { return k % 3 }),
	}
	warm = checkStage3MatchesOneShot(t, dc, fleetVectors)
	if rb := warm.Rebuilds(); rb != 6 {
		t.Fatalf("Rebuilds = %d, want 6 (only the repeated cell set patches)", rb)
	}
}

// checkStage3MatchesOneShot solves every vector on one Stage3Solver and
// on the one-shot oracle and requires bit-identical results: the grouped
// result's Rate, Util and Dense against the oracle's per-core TC and
// utilizations.
func checkStage3MatchesOneShot(t *testing.T, dc *model.DataCenter, vectors [][]int) *assign.Stage3Solver {
	t.Helper()
	warm := assign.NewStage3Solver(dc)
	for vi, ps := range vectors {
		want, err := assign.Stage3OneShot(context.Background(), dc, ps)
		if err != nil {
			t.Fatalf("vector %d one-shot: %v", vi, err)
		}
		got, err := warm.Solve(context.Background(), ps)
		if err != nil {
			t.Fatalf("vector %d warm: %v", vi, err)
		}
		if !bitsEq(got.RewardRate, want.RewardRate) {
			t.Fatalf("vector %d: reward %v vs %v", vi, got.RewardRate, want.RewardRate)
		}
		dense := got.Dense()
		for i := range want.TC {
			for k := range want.TC[i] {
				if !bitsEq(got.Rate(i, k), want.TC[i][k]) {
					t.Fatalf("vector %d: Rate(%d, %d) = %v, want %v", vi, i, k, got.Rate(i, k), want.TC[i][k])
				}
				if !bitsEq(dense[i][k], want.TC[i][k]) {
					t.Fatalf("vector %d: Dense()[%d][%d] = %v, want %v", vi, i, k, dense[i][k], want.TC[i][k])
				}
			}
		}
		if len(dense) != len(want.TC) {
			t.Fatalf("vector %d: Dense() has %d rows, want %d", vi, len(dense), len(want.TC))
		}
		for k := range want.CoreUtilization {
			if !bitsEq(got.Util(k), want.CoreUtilization[k]) {
				t.Fatalf("vector %d: Util(%d) = %v, want %v", vi, k, got.Util(k), want.CoreUtilization[k])
			}
		}
	}
	return warm
}

// TestStage3SolverRejectsOutOfRangePStates checks that a P-state below 0
// or above the off state is an error naming the core, never a panic or a
// silently-off core.
func TestStage3SolverRejectsOutOfRangePStates(t *testing.T) {
	sc := warmScenario(t, 9, 20, 2)
	s := assign.NewStage3Solver(sc.DC)
	const core = 7
	nt := sc.DC.NodeType(sc.DC.CoreNode(core))
	for _, bad := range []int{-1, nt.OffState() + 1} {
		ps := make([]int, sc.DC.NumCores())
		ps[core] = bad
		_, err := s.Solve(context.Background(), ps)
		if err == nil {
			t.Fatalf("P-state %d: no error", bad)
		}
		if want := fmt.Sprintf("core %d has P-state %d", core, bad); !strings.Contains(err.Error(), want) {
			t.Fatalf("P-state %d: error %q does not name %q", bad, err, want)
		}
	}
	// The solver stays usable after a rejected vector.
	if _, err := s.Solve(context.Background(), make([]int, sc.DC.NumCores())); err != nil {
		t.Fatal(err)
	}
}

// TestThreeStageWarmWorkersIsolatedAndCached checks the epoch hot path of
// the full solver: (a) a parallel search gives results bit-identical to a
// serial one (workers share nothing), (b) cloned workers own distinct
// simplex workspaces, and (c) a second epoch re-solve runs entirely on
// warm workspaces — zero workspace bytes allocated across all Stage-1
// workers and the Stage-3 solver.
func TestThreeStageWarmWorkersIsolatedAndCached(t *testing.T) {
	sc := warmScenario(t, 5, 20, 2)
	opts := assign.DefaultOptions()

	opts.Search.Parallelism = 1
	serial, err := assign.NewThreeStageSolver(sc.DC, sc.Thermal, opts)
	if err != nil {
		t.Fatal(err)
	}
	refPlan, err := serial.Solve()
	if err != nil {
		t.Fatal(err)
	}

	opts.Search.Parallelism = 4
	par, err := assign.NewThreeStageSolver(sc.DC, sc.Thermal, opts)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := par.Solve()
	if err != nil {
		t.Fatal(err)
	}
	if !bitsEq(plan.RewardRate(), refPlan.RewardRate()) ||
		!bitsEq(plan.Stage1.PredictedARR, refPlan.Stage1.PredictedARR) {
		t.Fatalf("parallel result differs from serial: %v vs %v", plan.RewardRate(), refPlan.RewardRate())
	}
	for i := range refPlan.Stage1.CracOut {
		if !bitsEq(plan.Stage1.CracOut[i], refPlan.Stage1.CracOut[i]) {
			t.Fatal("parallel search picked different outlets than serial")
		}
	}

	// Cloned workers must never share a workspace with the base solver.
	base := par.Stage1Warm()
	if clone := base.Clone(); clone.Workspace() == base.Workspace() {
		t.Fatal("Clone shares the base solver's workspace")
	}

	// First epoch grew the workspaces; drain the counters … The warm-epoch
	// check runs on the serial solver: the parallel pool creates workers
	// lazily as the search goroutines ask for them, so under load (-race on
	// one CPU) a later epoch can legitimately clone a worker the first
	// epoch never needed, which is growth by design, not a cold re-solve.
	first := serial.TakeLPStats()
	if first.Solves == 0 || first.AllocBytes == 0 {
		t.Fatalf("first epoch stats implausible: %+v", first)
	}
	// … then a second epoch must stay at the high-water mark.
	if _, err := serial.Solve(); err != nil {
		t.Fatal(err)
	}
	second := serial.TakeLPStats()
	if second.Solves == 0 {
		t.Fatalf("second epoch recorded no solves: %+v", second)
	}
	if second.AllocBytes != 0 {
		t.Fatalf("second epoch allocated %d workspace bytes, want 0 (warm re-solve)", second.AllocBytes)
	}
}
