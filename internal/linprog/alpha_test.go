package linprog_test

import (
	"math"
	"testing"

	"thermaldc/internal/layout"
	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
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

	generate := func(split, skipDead bool) (alphas [][][]float64, iters []int) {
		defer linprog.SetKernelSwitches(split, skipDead)()
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
	refAlpha, refIters := generate(false, false)
	for _, sw := range [][2]bool{{true, false}, {false, true}, {true, true}} {
		alphas, iters := generate(sw[0], sw[1])
		if len(iters) != len(refIters) {
			t.Fatalf("split %v, skip dead %v: %d solves, want %d", sw[0], sw[1], len(iters), len(refIters))
		}
		for k, it := range iters {
			if it != refIters[k] {
				t.Fatalf("split %v, skip dead %v: solve %d took %d iterations, want %d", sw[0], sw[1], k, it, refIters[k])
			}
		}
		for k, a := range alphas {
			for i := range a {
				for j := range a[i] {
					if math.Float64bits(a[i][j]) != math.Float64bits(refAlpha[k][i][j]) {
						t.Fatalf("split %v, skip dead %v, seed %d: α[%d][%d] = %v, want %v",
							sw[0], sw[1], cases[k].seed, i, j, a[i][j], refAlpha[k][i][j])
					}
				}
			}
		}
	}
}
