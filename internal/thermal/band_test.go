package thermal_test

import (
	"math"
	"math/rand"
	"testing"

	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/thermal"
	"thermaldc/internal/zones"
)

// checkBandedProduct requires InletTempsInto, which sums each row of G
// over its nonzero band only, to equal the dense product
// PowerSensitivity()·pcn plus the CRAC term InletBase bit for bit, in
// both the temperatures and the returned G·PCN scratch, and InletTemps to
// agree with it.
func checkBandedProduct(t *testing.T, name string, dc *model.DataCenter, m *thermal.Model, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cracOut := make([]float64, dc.NCRAC())
	pcn := make([]float64, dc.NCN())
	var tin, gp []float64
	for trial := 0; trial < 4; trial++ {
		for i := range cracOut {
			cracOut[i] = 10 + 15*rng.Float64()
		}
		for j := range pcn {
			switch {
			case trial == 0:
				pcn[j] = 0
			case rng.Intn(4) == 0:
				pcn[j] = 0
			default:
				pcn[j] = 3 * rng.Float64()
			}
		}
		base := m.InletBase(cracOut)
		dense := m.PowerSensitivity().MulVec(pcn)
		tin, gp = m.InletTempsInto(cracOut, pcn, tin, gp)
		once := m.InletTemps(cracOut, pcn)
		for r := range dense {
			want := base[r] + dense[r]
			if math.Float64bits(gp[r]) != math.Float64bits(dense[r]) {
				t.Fatalf("%s trial %d: banded G·PCN row %d = %v, dense %v", name, trial, r, gp[r], dense[r])
			}
			if math.Float64bits(tin[r]) != math.Float64bits(want) || math.Float64bits(once[r]) != math.Float64bits(want) {
				t.Fatalf("%s trial %d: inlet %d = %v (InletTemps %v), dense %v", name, trial, r, tin[r], once[r], want)
			}
		}
	}
}

func TestBandedInletTempsPaperScale(t *testing.T) {
	sc, err := scenario.Build(scenario.Default(0.3, 0.1, 1))
	if err != nil {
		t.Fatal(err)
	}
	checkBandedProduct(t, "paper scale", sc.DC, sc.Thermal, 1)
}

// TestBandedInletTempsFleet runs the 10-zone × 100-node fleet the
// fleet-capstep benchmark steps, whose G is block-diagonal per zone.
func TestBandedInletTempsFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the dense thermal model of a 1k-node fleet")
	}
	f, err := zones.BuildFleet(zones.FleetConfig{Zones: 10, NodesPerZone: 100, CracsPerZone: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	m, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	g := m.PowerSensitivity()
	zeros := 0
	for r := 0; r < g.Rows; r++ {
		for _, v := range g.Row(r) {
			if v == 0 {
				zeros++
			}
		}
	}
	if zeros < g.Rows*g.Cols/2 {
		t.Fatalf("fleet G has %d zeros of %d entries; want it block-sparse", zeros, g.Rows*g.Cols)
	}
	checkBandedProduct(t, "fleet", dc, m, 2)
}

// TestBandedInletTempsInteriorZeros hand-builds a floor whose G has
// all-zero rows (inlets fed by the CRAC alone) and a row whose band holds
// an interior zero: node 3 breathes the exhaust of nodes 0 and 2 but not
// of node 1.
func TestBandedInletTempsInteriorZeros(t *testing.T) {
	nt := model.HPProLiantDL785G5(0.3)
	f := nt.AirFlow
	dc := &model.DataCenter{
		NodeTypes:   []model.NodeType{nt},
		CRACs:       []model.CRAC{{Flow: 3 * f}},
		RedlineNode: 25,
		RedlineCRAC: 40,
	}
	for range 4 {
		dc.Nodes = append(dc.Nodes, model.Node{Type: 0})
	}
	// Thermal order: CRAC, nodes 0–3. The CRAC feeds nodes 0–2; nodes 0
	// and 2 split their exhaust between node 3 and the CRAC.
	dc.Alpha = [][]float64{
		{0, 1.0 / 3, 1.0 / 3, 1.0 / 3, 0},
		{0.5, 0, 0, 0, 0.5},
		{1, 0, 0, 0, 0},
		{0.5, 0, 0, 0, 0.5},
		{1, 0, 0, 0, 0},
	}
	m, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	g := m.PowerSensitivity()
	for _, r := range []int{1, 2, 3} {
		for c, v := range g.Row(r) {
			if v != 0 {
				t.Fatalf("G[%d][%d] = %v; want row %d all zero", r, c, v, r)
			}
		}
	}
	if row := g.Row(4); row[0] == 0 || row[1] != 0 || row[2] == 0 {
		t.Fatalf("G row 4 = %v; want nonzero, zero, nonzero in columns 0–2", row)
	}
	checkBandedProduct(t, "hand-built", dc, m, 3)
}
