package assign_test

import (
	"context"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/power"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// tinyInstance builds a 1-CRAC, 2-node (1 core each) data center small
// enough to enumerate every P-state assignment exactly.
func tinyInstance(t *testing.T) (*model.DataCenter, *thermal.Model) {
	t.Helper()
	nt := model.NodeType{
		Name:      "tiny",
		BasePower: 0.2,
		NumCores:  1,
		Core: power.CoreModel{
			FreqMHz:     []float64{3000, 2000, 1000},
			Voltage:     []float64{1, 1, 1},
			P0Power:     0.15,
			StaticShare: 0.3,
		},
		AirFlow: 0.05,
	}
	dc := &model.DataCenter{
		NodeTypes: []model.NodeType{nt},
		Nodes: []model.Node{
			{Type: 0, Label: model.LabelA},
			{Type: 0, Label: model.LabelE},
		},
		CRACs:       []model.CRAC{{Flow: 0.1}},
		RedlineNode: 25,
		RedlineCRAC: 40,
		TaskTypes: []model.TaskType{
			{Name: "hard", Reward: 4, RelDeadline: 3, ArrivalRate: 0.6},
			{Name: "easy", Reward: 1, RelDeadline: 1, ArrivalRate: 2.4},
		},
		ECS: model.ECS{
			{{0.5, 0.35, 0.18, 0}},
			{{1.6, 1.1, 0.55, 0}},
		},
		// Simple mixing: both nodes exhaust to the CRAC, CRAC feeds both.
		Alpha: [][]float64{
			{0, 0.5, 0.5},
			{0.8, 0.1, 0.1},
			{0.8, 0.1, 0.1},
		},
	}
	tm, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	// A power cap that forces a nontrivial choice: both cores at P0 must
	// not fit.
	search := tempsearch.Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1}
	pmin, pmax, err := assign.PowerBounds(dc, tm, search)
	if err != nil {
		t.Fatal(err)
	}
	dc.Pconst = pmin + 0.45*(pmax-pmin)
	if err := dc.Validate(); err != nil {
		t.Fatal(err)
	}
	return dc, tm
}

// bruteForceOptimum enumerates every (P-state, P-state, outlet) triple on
// the 1 °C lattice, keeps the exactly feasible ones, and solves the
// Stage-3 LP for each: the true optimum of the paper's decision space at
// that temperature granularity.
func bruteForceOptimum(t *testing.T, dc *model.DataCenter, tm *thermal.Model) float64 {
	t.Helper()
	best := 0.0
	off := dc.NodeTypes[0].OffState()
	for p0 := 0; p0 <= off; p0++ {
		for p1 := 0; p1 <= off; p1++ {
			pstates := []int{p0, p1}
			pcn := assign.NodePowersFromPStates(dc, pstates)
			feasibleSomewhere := false
			for out := 5.0; out <= 25; out++ {
				cracOut := []float64{out}
				if tm.RedlineSlack(tm.InletTemps(cracOut, pcn)) < -1e-9 {
					continue
				}
				if tm.TotalPower(cracOut, pcn) > dc.Pconst+1e-9 {
					continue
				}
				feasibleSomewhere = true
				break
			}
			if !feasibleSomewhere {
				continue
			}
			s3, err := assign.NewStage3Solver(dc).Solve(context.Background(), pstates)
			if err != nil {
				t.Fatal(err)
			}
			if s3.RewardRate > best {
				best = s3.RewardRate
			}
		}
	}
	return best
}

// TestThreeStageNearBruteForceOptimum validates the whole heuristic
// pipeline against the enumerated ground truth on a tiny instance: the
// three-stage result can never exceed the brute-force optimum and should
// land close to it.
func TestThreeStageNearBruteForceOptimum(t *testing.T) {
	dc, tm := tinyInstance(t)
	truth := bruteForceOptimum(t, dc, tm)
	if truth <= 0 {
		t.Fatal("brute force found no feasible assignment — instance misconfigured")
	}
	opts := assign.DefaultOptions()
	opts.Search = tempsearch.Config{Lo: 5, Hi: 25, CoarseStep: 5, FineStep: 1}
	bestHeuristic := 0.0
	for _, psi := range []float64{50, 100} {
		opts.Psi = psi
		res, err := assign.ThreeStage(dc, tm, opts)
		if err != nil {
			t.Fatal(err)
		}
		r := res.RewardRate()
		if r > truth+1e-6 {
			t.Fatalf("ψ=%g: heuristic %g exceeds the exhaustive optimum %g — impossible", psi, r, truth)
		}
		if r > bestHeuristic {
			bestHeuristic = r
		}
	}
	t.Logf("brute force %g, three-stage best %g (%.1f%%)", truth, bestHeuristic, 100*bestHeuristic/truth)
	if bestHeuristic < 0.8*truth {
		t.Errorf("three-stage %g below 80%% of the optimum %g", bestHeuristic, truth)
	}
}
