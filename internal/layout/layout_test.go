package layout

import (
	"math"
	"testing"

	"thermaldc/internal/model"
	"thermaldc/internal/stats"
	"thermaldc/internal/thermal"
)

// buildDC creates a DC skeleton with nNodes alternating Table-I types and
// nCracs CRAC units, then arranges it.
func buildDC(t testing.TB, nCracs, nNodes int, cfg Config) *model.DataCenter {
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
	dc.ECS = make(model.ECS, 1)
	dc.ECS[0] = make([][]float64, 2)
	for j := range dc.ECS[0] {
		dc.ECS[0][j] = []float64{1, 0.8, 0.6, 0.3, 0}
	}
	if err := Arrange(dc, cfg); err != nil {
		t.Fatalf("Arrange: %v", err)
	}
	return dc
}

func TestArrangeBasic(t *testing.T) {
	dc := buildDC(t, 2, 20, DefaultConfig())
	// 4 racks of 5; labels A..E per rack; aisles alternate.
	for j, n := range dc.Nodes {
		if n.Rack != j/5 || n.Slot != j%5 {
			t.Fatalf("node %d rack/slot = %d/%d", j, n.Rack, n.Slot)
		}
		if n.Label != model.NodeLabel(j%5) {
			t.Fatalf("node %d label = %v", j, n.Label)
		}
		if n.HotAisle != (j/5)%2 {
			t.Fatalf("node %d hot aisle = %d", j, n.HotAisle)
		}
	}
	// CRAC flows sum to node flows.
	nodeFlow := 0.0
	for j := range dc.Nodes {
		nodeFlow += dc.NodeType(j).AirFlow
	}
	cracFlow := dc.CRACs[0].Flow + dc.CRACs[1].Flow
	if math.Abs(cracFlow-nodeFlow) > 1e-9 {
		t.Errorf("CRAC flow %g != node flow %g", cracFlow, nodeFlow)
	}
}

func TestArrangeTallRackClampsLabel(t *testing.T) {
	cfg := DefaultConfig()
	cfg.NodesPerRack = 8
	dc := buildDC(t, 1, 8, cfg)
	if dc.Nodes[7].Label != model.LabelE || dc.Nodes[5].Label != model.LabelE {
		t.Error("slots above E should clamp to label E")
	}
	if dc.Nodes[4].Label != model.LabelE {
		t.Error("slot 4 should be E")
	}
	if dc.Nodes[3].Label != model.LabelD {
		t.Error("slot 3 should be D")
	}
}

func TestMMatrix(t *testing.T) {
	m := MMatrix(3, 0.7)
	for i := range m {
		sum := 0.0
		for j := range m[i] {
			sum += m[i][j]
			if i == j && m[i][j] != 0.7 {
				t.Errorf("M[%d][%d] = %g, want 0.7", i, j, m[i][j])
			}
			if i != j && math.Abs(m[i][j]-0.15) > 1e-12 {
				t.Errorf("M[%d][%d] = %g, want 0.15", i, j, m[i][j])
			}
		}
		if math.Abs(sum-1) > 1e-12 {
			t.Errorf("M row %d sums to %g", i, sum)
		}
	}
	single := MMatrix(1, 0.7)
	if single[0][0] != 1 {
		t.Errorf("single-CRAC M = %v, want [[1]]", single)
	}
}

func TestGenerateAlphaSatisfiesAppendixB(t *testing.T) {
	cfg := DefaultConfig()
	dc := buildDC(t, 2, 20, cfg)
	rng := stats.NewRand(1)
	if err := GenerateAlpha(dc, cfg, rng); err != nil {
		t.Fatalf("GenerateAlpha: %v", err)
	}
	if err := dc.Validate(); err != nil {
		t.Fatalf("generated DC invalid: %v", err)
	}
	n := dc.NumThermal()
	flows := dc.Flows()
	// Constraint 1: row sums 1 (checked by Validate too, but explicit).
	for i := 0; i < n; i++ {
		sum := 0.0
		for j := 0; j < n; j++ {
			sum += dc.Alpha[i][j]
		}
		if math.Abs(sum-1) > 1e-6 {
			t.Errorf("row %d sums to %g", i, sum)
		}
	}
	// Constraint 2: inflow balance.
	for j := 0; j < n; j++ {
		in := 0.0
		for i := 0; i < n; i++ {
			in += dc.Alpha[i][j] * flows[i]
		}
		if math.Abs(in-flows[j]) > 1e-5 {
			t.Errorf("destination %d inflow %g, want %g", j, in, flows[j])
		}
	}
	// Constraints 3/4: EC within Table-II ranges, biased to facing CRAC.
	ncrac := dc.NCRAC()
	for j, node := range dc.Nodes {
		ec := 0.0
		for c := 0; c < ncrac; c++ {
			ec += dc.Alpha[ncrac+j][c]
		}
		lo, hi := ECRange[node.Label][0], ECRange[node.Label][1]
		if ec < lo-1e-6 || ec > hi+1e-6 {
			t.Errorf("node %d (label %v) EC = %g outside [%g, %g]", j, node.Label, ec, lo, hi)
		}
		facing := dc.Alpha[ncrac+j][node.HotAisle]
		other := dc.Alpha[ncrac+j][1-node.HotAisle]
		if facing <= other {
			t.Errorf("node %d EC not biased to facing CRAC: %g vs %g", j, facing, other)
		}
	}
	// Constraint 5 (flow-weighted RC).
	for j, node := range dc.Nodes {
		rc := 0.0
		for i := 0; i < dc.NCN(); i++ {
			rc += dc.Alpha[ncrac+i][ncrac+j] * flows[ncrac+i]
		}
		rc /= flows[ncrac+j]
		lo, hi := RCRange[node.Label][0], RCRange[node.Label][1]
		if rc < lo-1e-6 || rc > hi+1e-6 {
			t.Errorf("node %d (label %v) RC = %g outside [%g, %g]", j, node.Label, rc, lo, hi)
		}
	}
}

func TestGenerateAlphaFeedsThermalModel(t *testing.T) {
	cfg := DefaultConfig()
	dc := buildDC(t, 2, 20, cfg)
	if err := GenerateAlpha(dc, cfg, stats.NewRand(3)); err != nil {
		t.Fatal(err)
	}
	m, err := thermal.New(dc)
	if err != nil {
		t.Fatalf("thermal model rejected generated alpha: %v", err)
	}
	// Physically sensible: powering nodes raises CRAC inlets above the
	// uniform outlet temperature.
	cracOut := []float64{15, 15}
	pcn := make([]float64, dc.NCN())
	for j := range pcn {
		pcn[j] = 0.5
	}
	tin := m.InletTemps(cracOut, pcn)
	for c := 0; c < dc.NCRAC(); c++ {
		if tin[c] <= 15 {
			t.Errorf("CRAC %d inlet %g not above outlet", c, tin[c])
		}
	}
}

func TestGenerateAlphaVariesWithSeed(t *testing.T) {
	cfg := DefaultConfig()
	a := buildDC(t, 2, 10, cfg)
	b := buildDC(t, 2, 10, cfg)
	if err := GenerateAlpha(a, cfg, stats.NewRand(1)); err != nil {
		t.Fatal(err)
	}
	if err := GenerateAlpha(b, cfg, stats.NewRand(2)); err != nil {
		t.Fatal(err)
	}
	diff := 0.0
	for i := range a.Alpha {
		for j := range a.Alpha[i] {
			diff += math.Abs(a.Alpha[i][j] - b.Alpha[i][j])
		}
	}
	if diff < 1e-6 {
		t.Error("different seeds produced identical alpha matrices")
	}
}

func TestGenerateAlphaDeterministicPerSeed(t *testing.T) {
	cfg := DefaultConfig()
	a := buildDC(t, 2, 10, cfg)
	b := buildDC(t, 2, 10, cfg)
	if err := GenerateAlpha(a, cfg, stats.NewRand(7)); err != nil {
		t.Fatal(err)
	}
	if err := GenerateAlpha(b, cfg, stats.NewRand(7)); err != nil {
		t.Fatal(err)
	}
	for i := range a.Alpha {
		for j := range a.Alpha[i] {
			if a.Alpha[i][j] != b.Alpha[i][j] {
				t.Fatal("same seed produced different alpha")
			}
		}
	}
}

func TestGenerateAlphaRelaxesPartialRack(t *testing.T) {
	// Two nodes (labels A, B only) are infeasible under strict Table II:
	// they must shed 60-70% of their air to each other but may accept at
	// most 10-20%. The relaxation path must still produce a valid matrix.
	cfg := DefaultConfig()
	dc := buildDC(t, 1, 2, cfg)
	if err := GenerateAlpha(dc, cfg, stats.NewRand(1)); err != nil {
		t.Fatalf("relaxed generation failed: %v", err)
	}
	if err := dc.Validate(); err != nil {
		t.Fatalf("relaxed alpha invalid: %v", err)
	}
}

func TestGenerateAlphaStrictFailsWithoutRelaxation(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxRelaxations = 0
	dc := buildDC(t, 1, 2, cfg)
	if err := GenerateAlpha(dc, cfg, stats.NewRand(1)); err == nil {
		t.Fatal("expected infeasibility for a 2-node rack with strict Table-II ranges")
	}
}

func TestPaperScaleGeneration(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale alpha generation in -short mode")
	}
	cfg := DefaultConfig()
	dc := buildDC(t, 3, 150, cfg)
	if err := GenerateAlpha(dc, cfg, stats.NewRand(42)); err != nil {
		t.Fatalf("paper-scale GenerateAlpha: %v", err)
	}
	if err := dc.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := thermal.New(dc); err != nil {
		t.Fatalf("thermal model: %v", err)
	}
}

// BenchmarkGenerateAlphaPaperScale times one paper-scale Appendix-B LP.
// Every iteration re-seeds the objective, so each solves the same LP
// whatever b.N is; run it at -cpu 1,2 to see the split eliminations.
func BenchmarkGenerateAlphaPaperScale(b *testing.B) {
	cfg := DefaultConfig()
	dc := buildDC(b, 3, 150, cfg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := GenerateAlpha(dc, cfg, stats.NewRand(1)); err != nil {
			b.Fatal(err)
		}
	}
}
