package assign_test

import (
	"context"
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/linprog"
	"thermaldc/internal/pwl"
	"thermaldc/internal/scenario"
	"thermaldc/internal/telemetry"
	"thermaldc/internal/tempsearch"
)

// smallScenario builds a reduced instance: 2 CRACs, 4 racks × 5 nodes.
func smallScenario(t testing.TB, seed int64) *scenario.Scenario {
	t.Helper()
	cfg := scenario.Default(0.3, 0.1, seed)
	cfg.NCracs = 2
	cfg.NNodes = 20
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("scenario.Build: %v", err)
	}
	return sc
}

func TestPowerBoundsSanity(t *testing.T) {
	sc := smallScenario(t, 1)
	if sc.Pmin >= sc.Pmax {
		t.Fatalf("Pmin %g >= Pmax %g", sc.Pmin, sc.Pmax)
	}
	// Pmin at least the total base power; Pmax at least total max compute.
	baseSum, maxSum := 0.0, 0.0
	for j := range sc.DC.Nodes {
		baseSum += sc.DC.NodeType(j).MinPower()
		maxSum += sc.DC.NodeType(j).MaxPower()
	}
	if sc.Pmin < baseSum-1e-9 {
		t.Errorf("Pmin %g below base power %g", sc.Pmin, baseSum)
	}
	if sc.Pmax < maxSum-1e-9 {
		t.Errorf("Pmax %g below max compute power %g", sc.Pmax, maxSum)
	}
	// Equation 18 default: Pconst halfway.
	want := (sc.Pmin + sc.Pmax) / 2
	if math.Abs(sc.DC.Pconst-want) > 1e-9 {
		t.Errorf("Pconst = %g, want %g", sc.DC.Pconst, want)
	}
}

func TestStage1FixedFeasibleAndOversubscribed(t *testing.T) {
	sc := smallScenario(t, 2)
	arrs := make([]*pwl.Func, len(sc.DC.NodeTypes))
	for j := range arrs {
		f, err := assign.ARR(sc.DC, j, 50)
		if err != nil {
			t.Fatal(err)
		}
		arrs[j] = f
	}
	cracOut := []float64{15, 15}
	res, err := assign.Stage1Fixed(sc.DC, sc.Thermal, arrs, cracOut)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatalf("Stage 1 infeasible at %v: total power %g vs Pconst %g", cracOut, res.TotalPower, sc.DC.Pconst)
	}
	if res.PredictedARR <= 0 {
		t.Error("predicted ARR should be positive")
	}
	if res.TotalPower > sc.DC.Pconst+1e-6 {
		t.Errorf("total power %g exceeds Pconst %g", res.TotalPower, sc.DC.Pconst)
	}
	// With Pconst halfway between the bounds the power constraint binds:
	// the data center is oversubscribed, so the LP should use most of the
	// power budget.
	if res.TotalPower < 0.9*sc.DC.Pconst {
		t.Errorf("total power %g uses < 90%% of Pconst %g — not oversubscribed?", res.TotalPower, sc.DC.Pconst)
	}
	for j, x := range res.NodeCorePower {
		nt := sc.DC.NodeType(j)
		max := float64(nt.NumCores) * nt.Core.PStatePower(0)
		if x < -1e-9 || x > max+1e-9 {
			t.Errorf("node %d core power %g outside [0, %g]", j, x, max)
		}
	}
}

// TestStage1AggregationExactness cross-checks the node-aggregated LP
// against an explicitly per-core formulation on a small instance: the
// objectives must agree (the aggregation argument in DESIGN.md).
func TestStage1AggregationExactness(t *testing.T) {
	sc := smallScenario(t, 3)
	dc, tm := sc.DC, sc.Thermal
	arrs := make([]*pwl.Func, len(dc.NodeTypes))
	for j := range arrs {
		f, err := assign.ARR(dc, j, 50)
		if err != nil {
			t.Fatal(err)
		}
		arrs[j] = f
	}
	cracOut := []float64{15, 16}
	agg, err := assign.Stage1Fixed(dc, tm, arrs, cracOut)
	if err != nil {
		t.Fatal(err)
	}

	// Per-core formulation: one set of segment variables per core.
	p := linprog.NewProblem(linprog.Maximize)
	type coreSeg struct {
		node int
		id   int
	}
	var segs []coreSeg
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		env := arrs[dc.Nodes[j].Type]
		for c := 0; c < nt.NumCores; c++ {
			for _, s := range env.Segments() {
				id := p.AddVar("", 0, s.Length, s.Slope)
				segs = append(segs, coreSeg{j, id})
			}
		}
	}
	lin := tm.LinearizeCRACPower(cracOut)
	baseConst := 0.0
	nodeCoef := make([]float64, dc.NCN())
	for j := 0; j < dc.NCN(); j++ {
		nodeCoef[j] = 1
		baseConst += dc.NodeType(j).BasePower
	}
	for _, l := range lin {
		baseConst += l.Const
		for j, c := range l.Coef {
			nodeCoef[j] += c
			baseConst += c * dc.NodeType(j).BasePower
		}
	}
	var powerTerms []linprog.Term
	for _, s := range segs {
		powerTerms = append(powerTerms, linprog.Term{Var: s.id, Coef: nodeCoef[s.node]})
	}
	p.AddRow(linprog.LE, dc.Pconst-baseConst, powerTerms...)
	base := tm.InletBase(cracOut)
	g := tm.PowerSensitivity()
	redline := dc.Redline()
	for th := 0; th < dc.NumThermal(); th++ {
		rhs := redline[th] - base[th]
		var terms []linprog.Term
		for _, s := range segs {
			if gj := g.At(th, s.node); gj != 0 {
				terms = append(terms, linprog.Term{Var: s.id, Coef: gj})
			}
		}
		for j := 0; j < dc.NCN(); j++ {
			rhs -= g.At(th, j) * dc.NodeType(j).BasePower
		}
		p.AddRow(linprog.LE, rhs, terms...)
	}
	sol, err := p.Solve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sol.Objective-agg.PredictedARR) > 1e-6*(1+math.Abs(sol.Objective)) {
		t.Errorf("per-core LP %g != aggregated LP %g", sol.Objective, agg.PredictedARR)
	}
}

func TestThreeStageEndToEnd(t *testing.T) {
	sc := smallScenario(t, 4)
	opts := assign.DefaultOptions()
	res, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.RewardRate() <= 0 {
		t.Fatal("three-stage reward rate should be positive")
	}
	// Stage-3 reward cannot exceed the arrival-rate bound Σ λ_i·r_i.
	arrivalBound := 0.0
	for _, tt := range sc.DC.TaskTypes {
		arrivalBound += tt.ArrivalRate * tt.Reward
	}
	if res.RewardRate() > arrivalBound+1e-6 {
		t.Errorf("reward rate %g exceeds arrival bound %g", res.RewardRate(), arrivalBound)
	}
	// The integer P-state assignment must respect power and redlines
	// (with the Stage-2 budget rule, node powers only shrink).
	pcn := assign.NodePowersFromPStates(sc.DC, res.PStates)
	for j := range pcn {
		if pcn[j] > res.Stage1.NodePower[j]+1e-9 {
			t.Errorf("node %d P-state power %g exceeds Stage-1 budget %g", j, pcn[j], res.Stage1.NodePower[j])
		}
	}
	total := sc.Thermal.TotalPower(res.Stage1.CracOut, pcn)
	if total > sc.DC.Pconst+1e-6 {
		t.Errorf("post-Stage-2 total power %g exceeds Pconst %g", total, sc.DC.Pconst)
	}
	tin := sc.Thermal.InletTemps(res.Stage1.CracOut, pcn)
	if slack := sc.Thermal.RedlineSlack(tin); slack < -1e-6 {
		t.Errorf("redline violated by %g °C after Stage 2", -slack)
	}
	// Core utilizations within [0, 1].
	for k := range res.PStates {
		if u := res.Stage3.Util(k); u < -1e-9 || u > 1+1e-6 {
			t.Errorf("core %d utilization %g", k, u)
		}
	}
}

func TestBaselineEndToEnd(t *testing.T) {
	sc := smallScenario(t, 5)
	res, err := assign.Baseline(sc.DC, sc.Thermal, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Feasible {
		t.Fatal("baseline result infeasible")
	}
	if res.RewardRate <= 0 || res.RewardRate > res.RewardRateLP+1e-9 {
		t.Errorf("rounded reward %g vs LP %g", res.RewardRate, res.RewardRateLP)
	}
	for j := range sc.DC.Nodes {
		sum := 0.0
		for i := range sc.DC.TaskTypes {
			f := res.Frac[i][j]
			if f < -1e-9 || f > 1+1e-9 {
				t.Fatalf("FRAC[%d][%d] = %g", i, j, f)
			}
			sum += f
		}
		if sum > 1+1e-6 {
			t.Fatalf("node %d fractions sum to %g", j, sum)
		}
		// Equation 22: used cores integer and consistent with fractions.
		used := sum * float64(sc.DC.NodeType(j).NumCores)
		if math.Abs(used-float64(res.UsedCores[j])) > 1e-6 {
			t.Errorf("node %d used cores %g, recorded %d", j, used, res.UsedCores[j])
		}
	}
	if res.TotalPower > sc.DC.Pconst+1e-6 {
		t.Errorf("baseline power %g exceeds Pconst %g", res.TotalPower, sc.DC.Pconst)
	}
}

// TestBaselineTracesLPSolves runs the Equation-21 baseline with and
// without a tracing recorder: the results match bit for bit, and the
// traced run books the candidates' LP solves (a candidate whose base power
// alone breaks a redline needs none) and the final solve at the winning
// outlets as LP-solve spans carrying their pivots.
func TestBaselineTracesLPSolves(t *testing.T) {
	sc := smallScenario(t, 5)
	opts := assign.DefaultOptions()
	plain, err := assign.Baseline(sc.DC, sc.Thermal, opts)
	if err != nil {
		t.Fatal(err)
	}
	rec := telemetry.NewRecorder()
	rec.Trace = telemetry.NewTracer(1 << 16)
	opts.Recorder = rec
	traced, err := assign.Baseline(sc.DC, sc.Thermal, opts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(traced.RewardRateLP) != math.Float64bits(plain.RewardRateLP) ||
		traced.SearchEvals != plain.SearchEvals || traced.SearchSolved != plain.SearchSolved {
		t.Fatalf("traced baseline: LP reward %v, %d/%d candidates; untraced %v, %d/%d",
			traced.RewardRateLP, traced.SearchSolved, traced.SearchEvals,
			plain.RewardRateLP, plain.SearchSolved, plain.SearchEvals)
	}
	byKind := rec.Trace.CountByKind()
	if got, most := byKind[telemetry.SpanLPSolve], traced.SearchSolved+1; got < 2 || got > most {
		t.Errorf("%d LP-solve spans, want 2 to %d (%d solved candidates and the final solve)", got, most, traced.SearchSolved)
	}
	if byKind[telemetry.SpanCandidate] == 0 {
		t.Error("no candidate spans from the traced search")
	}
	pivots := int64(0)
	for _, sp := range rec.Trace.Snapshot() {
		if sp.Kind == telemetry.SpanLPSolve {
			pivots += sp.Pivots
		}
	}
	if pivots == 0 {
		t.Error("LP-solve spans carry no pivots")
	}
}

func TestThreeStageBeatsOrMatchesBaselineOnAverage(t *testing.T) {
	// The paper's headline claim, at reduced scale: averaged over seeds,
	// the best-of-ψ three-stage assignment should not lose to the
	// P0-or-off baseline. Individual seeds may go either way; the average
	// improvement must be non-negative.
	if testing.Short() {
		t.Skip("multi-seed comparison in -short mode")
	}
	sum := 0.0
	const trials = 3
	for seed := int64(10); seed < 10+trials; seed++ {
		sc := smallScenario(t, seed)
		bl, err := assign.Baseline(sc.DC, sc.Thermal, assign.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		best := 0.0
		for _, psi := range []float64{25, 50} {
			opts := assign.DefaultOptions()
			opts.Psi = psi
			ts, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			if ts.RewardRate() > best {
				best = ts.RewardRate()
			}
		}
		improvement := (best - bl.RewardRate) / bl.RewardRate
		t.Logf("seed %d: three-stage %g vs baseline %g (%+.2f%%)", seed, best, bl.RewardRate, 100*improvement)
		sum += improvement
	}
	if sum/trials < -0.02 {
		t.Errorf("average improvement %.2f%% is negative", 100*sum/trials)
	}
}

func TestGridAndCoarseToFineAgreeOnSmallInstance(t *testing.T) {
	if testing.Short() {
		t.Skip("grid ablation in -short mode")
	}
	sc := smallScenario(t, 6)
	coarse := assign.DefaultOptions()
	coarse.Search = tempsearch.Config{Lo: 10, Hi: 20, CoarseStep: 5, FineStep: 2.5}
	grid := coarse
	grid.Strategy = assign.FullGrid
	a, err := assign.ThreeStage(sc.DC, sc.Thermal, coarse)
	if err != nil {
		t.Fatal(err)
	}
	b, err := assign.ThreeStage(sc.DC, sc.Thermal, grid)
	if err != nil {
		t.Fatal(err)
	}
	// The grid is exhaustive, so it can only be at least as good in
	// Stage-1 value; the two should be close.
	if a.Stage1.PredictedARR > b.Stage1.PredictedARR+1e-6 {
		t.Errorf("coarse-to-fine %g beat the exhaustive grid %g — impossible",
			a.Stage1.PredictedARR, b.Stage1.PredictedARR)
	}
	if b.Stage1.PredictedARR > a.Stage1.PredictedARR*1.1 {
		t.Errorf("coarse-to-fine much worse than grid: %g vs %g", a.Stage1.PredictedARR, b.Stage1.PredictedARR)
	}
}
