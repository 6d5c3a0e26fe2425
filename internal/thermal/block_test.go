package thermal

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"

	"thermaldc/internal/linalg"
	"thermaldc/internal/model"
)

// interleavedDC hand-builds a floor of two CRACs and four nodes whose two
// components interleave in thermal order: units 0, 2, 4 (CRAC 0 and nodes
// 0, 2) and units 1, 3, 5 (CRAC 1 and nodes 1, 3). CRAC 1 moves five
// times a node's air and sends 90% of it to node 1, so A[3][1] = 4.5 and
// partial pivoting takes a negative pivot in column 1.
func interleavedDC() *model.DataCenter {
	nt := model.HPProLiantDL785G5(0.3)
	f := nt.AirFlow
	dc := &model.DataCenter{
		NodeTypes:   []model.NodeType{nt},
		CRACs:       []model.CRAC{{Flow: 2 * f}, {Flow: 5 * f}},
		RedlineNode: 25,
		RedlineCRAC: 40,
	}
	for range 4 {
		dc.Nodes = append(dc.Nodes, model.Node{Type: 0})
	}
	dc.Alpha = [][]float64{
		{0, 0, 0.5, 0, 0.5, 0},
		{0, 0, 0, 0.9, 0, 0.1},
		{0.6, 0, 0, 0, 0.4, 0},
		{0, 0.7, 0, 0, 0, 0.3},
		{1, 0, 0, 0, 0, 0},
		{0, 0.8, 0, 0.2, 0, 0},
	}
	return dc
}

func TestNewMatchesDenseInterleaved(t *testing.T) {
	dc := interleavedDC()
	c := Components(dc.Alpha, 0)
	if want := []int{0, 1, 0, 1, 0, 1}; c.NumComponents != 2 || !slices.Equal(c.Component, want) {
		t.Fatalf("components %v (%d); want %v", c.Component, c.NumComponents, want)
	}
	if err := matchDenseOracle(dc); err != nil {
		t.Fatal(err)
	}
	// The negative pivot leaves −0 between the blocks in the dense
	// outlet maps; New must reproduce it, not leave +0 there.
	want, err := newDenseOracle(dc)
	if err != nil {
		t.Fatal(err)
	}
	if v := want.outFromCRAC.At(1, 0); v != 0 || !math.Signbit(v) {
		t.Fatalf("dense outFromCRAC[1][0] = %v (sign bit %v); want −0", v, math.Signbit(v))
	}
}

// TestNewMatchesDenseSingularBlock appends a third component, a node that
// recirculates all its air into itself, to the interleaved floor: its block
// of M is singular, and New must fail with the dense path's error.
func TestNewMatchesDenseSingularBlock(t *testing.T) {
	dc := interleavedDC()
	dc.Nodes = append(dc.Nodes, model.Node{Type: 0})
	for i := range dc.Alpha {
		dc.Alpha[i] = append(dc.Alpha[i], 0)
	}
	dc.Alpha = append(dc.Alpha, []float64{0, 0, 0, 0, 0, 0, 1})
	if _, err := New(dc); !errors.Is(err, linalg.ErrSingular) {
		t.Fatalf("New error %v; want a wrapped linalg.ErrSingular", err)
	}
	if err := matchDenseOracle(dc); err != nil {
		t.Fatal(err)
	}
}

// FuzzNewMatchesDense draws small floors whose α is block-structured with
// random interleaving, random zero patterns and random CRAC and node air
// flows (so negative pivots and singular blocks both occur), and holds New
// to the dense oracle bit for bit.
func FuzzNewMatchesDense(f *testing.F) {
	f.Add(int64(1), uint8(1), uint8(5), uint8(1))
	f.Add(int64(2), uint8(2), uint8(6), uint8(2))
	f.Add(int64(3), uint8(3), uint8(9), uint8(3))
	f.Add(int64(4), uint8(0), uint8(3), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, ncrac, nnode, nblock uint8) {
		dc := blockDC(seed, 1+int(ncrac%4), 1+int(nnode%10), 1+int(nblock%4))
		if err := matchDenseOracle(dc); err != nil {
			t.Fatal(err)
		}
	})
}

// blockDC builds a floor of ncrac CRACs and nnode nodes, each unit placed
// in one of nblock groups at random; α only joins units of one group.
func blockDC(seed int64, ncrac, nnode, nblock int) *model.DataCenter {
	rng := rand.New(rand.NewSource(seed))
	base := model.HPProLiantDL785G5(0.3)
	dc := &model.DataCenter{RedlineNode: 25, RedlineCRAC: 40}
	for range 3 {
		nt := base
		nt.AirFlow = 0.02 + 0.2*rng.Float64()
		dc.NodeTypes = append(dc.NodeTypes, nt)
	}
	for range ncrac {
		dc.CRACs = append(dc.CRACs, model.CRAC{Flow: 0.05 + 2*rng.Float64()})
	}
	for range nnode {
		dc.Nodes = append(dc.Nodes, model.Node{Type: rng.Intn(len(dc.NodeTypes))})
	}
	n := ncrac + nnode
	group := make([]int, n)
	for i := range group {
		group[i] = rng.Intn(nblock)
	}
	dc.Alpha = make([][]float64, n)
	for i := range dc.Alpha {
		row := make([]float64, n)
		sum := 0.0
		for j := range row {
			if group[j] == group[i] && rng.Intn(3) != 0 {
				row[j] = rng.Float64()
				sum += row[j]
			}
		}
		if sum == 0 {
			row[i], sum = 1, 1
		}
		for j := range row {
			row[j] /= sum
		}
		dc.Alpha[i] = row
	}
	return dc
}
