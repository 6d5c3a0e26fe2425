package linprog_test

import (
	"context"
	"math"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/layout"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
)

// alphaDC arranges a data center of nNodes alternating Table-I nodes and
// nCracs CRACs, ready for layout.GenerateAlpha.
func alphaDC(t testing.TB, nCracs, nNodes int) *model.DataCenter {
	t.Helper()
	dc := &model.DataCenter{
		NodeTypes:   model.TableINodeTypes(0.3),
		CRACs:       make([]model.CRAC, nCracs),
		TaskTypes:   []model.TaskType{{Name: "t", Reward: 1, RelDeadline: 1, ArrivalRate: 1}},
		RedlineNode: model.DefaultRedlineNode,
		RedlineCRAC: model.DefaultRedlineCRAC,
	}
	for j := 0; j < nNodes; j++ {
		dc.Nodes = append(dc.Nodes, model.Node{Type: j % 2})
	}
	if err := layout.Arrange(dc, layout.DefaultConfig()); err != nil {
		t.Fatal(err)
	}
	return dc
}

// TestAlphaKernelBitIdentical generates α on 60 seeded feasible layouts
// (1–3 CRACs, 4–30 nodes; partial racks take the relaxation path) under every
// combination of the pivot kernel's switches and requires bit-identical
// matrices and iteration counts. make ci runs it at -cpu 1,2,4.
func TestAlphaKernelBitIdentical(t *testing.T) {
	type layoutCase struct {
		dc   *model.DataCenter
		seed int64
	}
	var cases []layoutCase
	relaxed := 0
	for seed := int64(0); len(cases) < 60 && seed < 120; seed++ {
		dc := alphaDC(t, 1+int(seed%3), 4+int(seed%27))
		if layout.GenerateAlpha(dc, layout.DefaultConfig(), stats.NewRand(seed)) != nil {
			continue // infeasible even with the widest ranges: no α to compare
		}
		strict := layout.DefaultConfig()
		strict.MaxRelaxations = 0
		if layout.GenerateAlpha(dc, strict, stats.NewRand(seed)) != nil {
			relaxed++
		}
		cases = append(cases, layoutCase{dc, seed})
	}
	if len(cases) < 60 || relaxed < 10 || relaxed > len(cases)-10 {
		t.Fatalf("coverage: %d feasible layouts, %d of them on the relaxation path", len(cases), relaxed)
	}

	generate := func(sw linprog.KernelSwitches) (alphas [][][]float64, iters []int) {
		defer sw.Set()()
		linprog.SetSolvedHook(func(_ *linprog.Problem, sol *linprog.Solution) { iters = append(iters, sol.Iterations) })
		defer linprog.SetSolvedHook(nil)
		for _, c := range cases {
			if err := layout.GenerateAlpha(c.dc, layout.DefaultConfig(), stats.NewRand(c.seed)); err != nil {
				t.Fatalf("seed %d: %v", c.seed, err)
			}
			alphas = append(alphas, c.dc.Alpha)
		}
		return alphas, iters
	}
	settings := linprog.KernelSettings()
	refAlpha, refIters := generate(settings[0])
	for _, sw := range settings[1:] {
		alphas, iters := generate(sw)
		if len(iters) != len(refIters) {
			t.Fatalf("%v: %d solves, want %d", sw, len(iters), len(refIters))
		}
		for k, it := range iters {
			if it != refIters[k] {
				t.Fatalf("%v: solve %d took %d iterations, want %d", sw, k, it, refIters[k])
			}
		}
		for k, a := range alphas {
			for i := range a {
				for j := range a[i] {
					if math.Float64bits(a[i][j]) != math.Float64bits(refAlpha[k][i][j]) {
						t.Fatalf("%v, seed %d: α[%d][%d] = %v, want %v",
							sw, cases[k].seed, i, j, a[i][j], refAlpha[k][i][j])
					}
				}
			}
		}
	}
}

// largestSolve runs f and returns the LP with the most rows among those it
// solved to optimality.
func largestSolve(t *testing.T, f func() error) *linprog.Problem {
	t.Helper()
	var big *linprog.Problem
	linprog.SetSolvedHook(func(p *linprog.Problem, _ *linprog.Solution) {
		if big == nil || p.NumRows() > big.NumRows() {
			big = p
		}
	})
	defer linprog.SetSolvedHook(nil)
	if err := f(); err != nil {
		t.Fatal(err)
	}
	return big
}

// TestLargeLPKernelBitIdentical solves the two LPs large enough to queue
// their eliminations by default, the α LP of one fleet zone (100 nodes,
// 2 CRACs, as zones.BuildFleet generates per variant) and one paper-scale
// Equation-21 candidate, under every combination of the pivot kernel's
// switches, and requires bit-identical x, duals, objective, iteration and
// pivot counts. make ci runs it at -cpu 1,2,4.
func TestLargeLPKernelBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale scenario build")
	}
	zone := alphaDC(t, 2, 100)
	alphaLP := largestSolve(t, func() error {
		return layout.GenerateAlpha(zone, layout.DefaultConfig(), stats.NewRand(1))
	})
	sc, err := scenario.Build(scenario.Default(0.3, 0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, sc.DC.NCRAC())
	for i := range out {
		out[i] = 15
	}
	baselineLP := largestSolve(t, func() error {
		_, err := assign.BaselineFixed(sc.DC, sc.Thermal, out)
		return err
	})
	type run struct {
		iterations int
		pivots     int64
		objective  uint64
		x, duals   []uint64
	}
	solve := func(p *linprog.Problem) run {
		ws := &linprog.Workspace{}
		sol, err := p.Solve(context.Background(), ws)
		if err != nil {
			t.Fatal(err)
		}
		r := run{iterations: sol.Iterations, pivots: ws.Stats.Pivots, objective: math.Float64bits(sol.Objective)}
		for _, v := range sol.Values() {
			r.x = append(r.x, math.Float64bits(v))
		}
		for _, y := range sol.AppendDuals(nil) {
			r.duals = append(r.duals, math.Float64bits(y))
		}
		return r
	}
	for _, c := range []struct {
		name string
		p    *linprog.Problem
	}{{"fleet-zone α", alphaLP}, {"paper-scale Eq. 21", baselineLP}} {
		settings := linprog.KernelSettings()
		restore := settings[0].Set()
		want := solve(c.p)
		restore()
		if want.pivots < 200 {
			t.Fatalf("%s: %d pivots, too few to fill many batches", c.name, want.pivots)
		}
		for _, sw := range settings[1:] {
			restore := sw.Set()
			got := solve(c.p)
			restore()
			if got.iterations != want.iterations || got.pivots != want.pivots || got.objective != want.objective {
				t.Fatalf("%s (%v): %d iterations, %d pivots, objective %x; want %d, %d, %x", c.name, sw,
					got.iterations, got.pivots, got.objective, want.iterations, want.pivots, want.objective)
			}
			for j := range want.x {
				if got.x[j] != want.x[j] {
					t.Fatalf("%s (%v): x[%d] = %x, want %x", c.name, sw, j, got.x[j], want.x[j])
				}
			}
			for i := range want.duals {
				if got.duals[i] != want.duals[i] {
					t.Fatalf("%s (%v): dual %d = %x, want %x", c.name, sw, i, got.duals[i], want.duals[i])
				}
			}
		}
	}
}
