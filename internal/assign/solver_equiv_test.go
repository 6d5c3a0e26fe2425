package assign_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/faults"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
	"thermaldc/internal/thermal"
)

// buildARRs mirrors what ThreeStage precomputes per ψ.
func buildARRs(t *testing.T, sc *scenario.Scenario, psi float64) []*pwl.Func {
	t.Helper()
	arrs := make([]*pwl.Func, len(sc.DC.NodeTypes))
	for j := range arrs {
		f, err := assign.ARR(sc.DC, j, psi)
		if err != nil {
			t.Fatal(err)
		}
		arrs[j] = f
	}
	return arrs
}

// TestStage1SolverMatchesFixed checks the incremental solver against the
// from-scratch Stage1Fixed across randomized scenarios and many lattice
// points, including repeated solves on one solver and solves on a clone.
// The two paths perform identical floating-point operations, so every
// number must match bit for bit.
func TestStage1SolverMatchesFixed(t *testing.T) {
	cases := []struct {
		seed           int64
		ncracs, nnodes int
		psi            float64
	}{
		{seed: 3, ncracs: 2, nnodes: 20, psi: 50},
		{seed: 11, ncracs: 2, nnodes: 20, psi: 25},
		{seed: 7, ncracs: 3, nnodes: 45, psi: 50},
	}
	for _, tc := range cases {
		cfg := scenario.Default(0.3, 0.1, tc.seed)
		cfg.NCracs = tc.ncracs
		cfg.NNodes = tc.nnodes
		sc, err := scenario.Build(cfg)
		if err != nil {
			t.Fatalf("seed %d: scenario.Build: %v", tc.seed, err)
		}
		arrs := buildARRs(t, sc, tc.psi)
		solver := assign.NewStage1Solver(sc.DC, sc.Thermal, arrs)
		clone := solver.Clone()

		// Random outlet vectors across the search window, plus the window
		// corners (the hot corner often makes base power alone violate a
		// redline, exercising the infeasible-candidate error path).
		rng := stats.NewRand(tc.seed + 500)
		points := [][]float64{
			repeated(5, tc.ncracs), repeated(25, tc.ncracs), repeated(16, tc.ncracs),
		}
		for n := 0; n < 12; n++ {
			p := make([]float64, tc.ncracs)
			for i := range p {
				p[i] = 5 + 20*rng.Float64()
			}
			points = append(points, p)
		}

		// Two passes over all points on the same solver: the second pass
		// must reproduce the first (no state leaks between solves).
		for pass := 0; pass < 2; pass++ {
			for pi, out := range points {
				want, wantErr := assign.Stage1Fixed(sc.DC, sc.Thermal, arrs, out)
				s := solver
				if pi%2 == 1 {
					s = clone
				}
				got, gotErr := s.Solve(out)
				if (wantErr == nil) != (gotErr == nil) {
					t.Fatalf("seed %d point %v pass %d: error mismatch: fixed=%v solver=%v",
						tc.seed, out, pass, wantErr, gotErr)
				}
				if wantErr != nil {
					if got.Feasible != want.Feasible {
						t.Errorf("seed %d point %v: Feasible %v vs %v on error", tc.seed, out, got.Feasible, want.Feasible)
					}
					continue
				}
				if got.Feasible != want.Feasible {
					t.Errorf("seed %d point %v pass %d: Feasible = %v, want %v", tc.seed, out, pass, got.Feasible, want.Feasible)
				}
				same := func(name string, g, w float64) {
					if math.Float64bits(g) != math.Float64bits(w) {
						t.Errorf("seed %d point %v pass %d: %s = %.17g, want %.17g", tc.seed, out, pass, name, g, w)
					}
				}
				same("PredictedARR", got.PredictedARR, want.PredictedARR)
				same("PowerShadowPrice", got.PowerShadowPrice, want.PowerShadowPrice)
				same("ComputePower", got.ComputePower, want.ComputePower)
				same("CRACPower", got.CRACPower, want.CRACPower)
				same("TotalPower", got.TotalPower, want.TotalPower)
				same("LinearPower", got.LinearPower, want.LinearPower)
				same("LinearBasePower", got.LinearBasePower, want.LinearBasePower)
				for j := range want.NodePower {
					same(fmt.Sprintf("NodePower[%d]", j), got.NodePower[j], want.NodePower[j])
					same(fmt.Sprintf("NodeCorePower[%d]", j), got.NodeCorePower[j], want.NodeCorePower[j])
				}
			}
		}
	}
}

func repeated(v float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = v
	}
	return out
}

// TestThreeStageParallelismInvariant verifies the documented determinism
// guarantee end to end: the full three-stage assignment returns identical
// results for every worker-pool size.
func TestThreeStageParallelismInvariant(t *testing.T) {
	sc := smallScenario(t, 4)
	var ref *assign.ThreeStageResult
	for i, par := range []int{1, 4, runtime.GOMAXPROCS(0)} {
		opts := assign.DefaultOptions()
		opts.Search.Parallelism = par
		res, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		if i == 0 {
			ref = res
			continue
		}
		if res.RewardRate() != ref.RewardRate() {
			t.Errorf("Parallelism=%d: reward %.15g != reference %.15g", par, res.RewardRate(), ref.RewardRate())
		}
		if res.Stage1.PredictedARR != ref.Stage1.PredictedARR {
			t.Errorf("Parallelism=%d: Stage1 ARR %.15g != reference %.15g", par, res.Stage1.PredictedARR, ref.Stage1.PredictedARR)
		}
		if res.SearchEvals != ref.SearchEvals {
			t.Errorf("Parallelism=%d: SearchEvals %d != reference %d", par, res.SearchEvals, ref.SearchEvals)
		}
		for i := range ref.Stage1.CracOut {
			if res.Stage1.CracOut[i] != ref.Stage1.CracOut[i] {
				t.Errorf("Parallelism=%d: CracOut = %v, want %v", par, res.Stage1.CracOut, ref.Stage1.CracOut)
				break
			}
		}
		for k := range ref.PStates {
			if res.PStates[k] != ref.PStates[k] {
				t.Errorf("Parallelism=%d: PStates differ at core %d", par, k)
				break
			}
		}
	}
}

// TestBaselineSkeletonMatchesFresh drives one Equation-21 search worker's
// patched LP over many outlet vectors, twice, and requires every result
// and error to match an LP built from scratch at the same outlets bit for
// bit, on a healthy model and on one with a failed node and a degraded
// CRAC. The window's hot corner makes base power alone violate a redline,
// so the error path is exercised between successful solves.
func TestBaselineSkeletonMatchesFresh(t *testing.T) {
	sc, err := scenario.Build(func() scenario.Config {
		cfg := scenario.Default(0.3, 0.3, 5)
		cfg.NCracs, cfg.NNodes = 2, 16
		return cfg
	}())
	if err != nil {
		t.Fatal(err)
	}
	st := faults.NewState(sc.DC.NCRAC(), sc.DC.NCN())
	st.Apply(faults.Event{Kind: faults.NodeFail, Unit: 3})
	st.Apply(faults.Event{Kind: faults.CRACDegrade, Unit: 1, Magnitude: 0.7})
	degDC, err := st.Degrade(sc.DC, faults.Planner)
	if err != nil {
		t.Fatal(err)
	}
	degTM, err := thermal.New(degDC)
	if err != nil {
		t.Fatal(err)
	}

	rng := stats.NewRand(41)
	points := [][]float64{{5, 5}, {25, 25}, {5, 25}, {25, 5}, {16, 16}}
	for n := 0; n < 14; n++ {
		points = append(points, []float64{5 + 20*rng.Float64(), 5 + 20*rng.Float64()})
	}
	for _, c := range []struct {
		name string
		dc   *model.DataCenter
		tm   *thermal.Model
	}{{"healthy", sc.DC, sc.Thermal}, {"degraded", degDC, degTM}} {
		solve := assign.BaselineWorker(c.dc, c.tm)
		solved, failed := 0, 0
		for pass := 0; pass < 2; pass++ {
			for _, out := range points {
				tag := fmt.Sprintf("%s pass %d outlets %v", c.name, pass, out)
				want, wantErr := assign.BaselineFresh(c.dc, c.tm, out)
				got, gotErr := solve(out)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Fatalf("%s: error %v, fresh %v", tag, gotErr, wantErr)
				}
				if wantErr != nil {
					failed++
					continue
				}
				solved++
				sameBaseline(t, tag, got, want)
			}
		}
		if solved == 0 || failed == 0 {
			t.Fatalf("%s: %d solved, %d failed: both paths must be exercised", c.name, solved, failed)
		}
	}
}

// sameBaseline fails unless got and want agree bit for bit.
func sameBaseline(t *testing.T, tag string, got, want *assign.BaselineResult) {
	t.Helper()
	same := func(name string, g, w float64) {
		if math.Float64bits(g) != math.Float64bits(w) {
			t.Fatalf("%s: %s = %.17g, fresh %.17g", tag, name, g, w)
		}
	}
	same("RewardRateLP", got.RewardRateLP, want.RewardRateLP)
	same("RewardRate", got.RewardRate, want.RewardRate)
	same("TotalPower", got.TotalPower, want.TotalPower)
	for i := range want.Frac {
		for j := range want.Frac[i] {
			same(fmt.Sprintf("Frac[%d][%d]", i, j), got.Frac[i][j], want.Frac[i][j])
		}
	}
	for j := range want.NodePower {
		same(fmt.Sprintf("NodePower[%d]", j), got.NodePower[j], want.NodePower[j])
	}
	if fmt.Sprint(got.UsedCores) != fmt.Sprint(want.UsedCores) {
		t.Fatalf("%s: UsedCores %v, fresh %v", tag, got.UsedCores, want.UsedCores)
	}
	if got.Feasible != want.Feasible {
		t.Fatalf("%s: Feasible %v, fresh %v", tag, got.Feasible, want.Feasible)
	}
}
