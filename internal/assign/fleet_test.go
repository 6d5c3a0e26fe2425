package assign_test

import (
	"context"
	"sync"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
	"thermaldc/internal/thermal"
	"thermaldc/internal/zones"
)

// fleetPlan is a warm cap step's plan on the 10-zone × 100-node fleet
// the fleet-capstep benchmark steps: the zone-decomposed Stage 1 at
// 15 °C outlets, then Stages 2–3.
type fleetPlan struct {
	dc   *model.DataCenter
	tm   *thermal.Model
	arrs []*pwl.Func
	s1   *assign.Stage1Result
	plan *assign.ThreeStageResult
}

var (
	fleet1kOnce sync.Once
	fleet1k     fleetPlan
	fleet1kErr  error
)

// getFleet1k builds the fleet plan once per test binary: the dense
// thermal model of 1,020 thermal units takes seconds to factor.
func getFleet1k(t *testing.T) *fleetPlan {
	t.Helper()
	if testing.Short() {
		t.Skip("builds the dense thermal model of a 1k-node fleet")
	}
	fleet1kOnce.Do(func() { fleet1kErr = fleet1k.build() })
	if fleet1kErr != nil {
		t.Fatal(fleet1kErr)
	}
	return &fleet1k
}

func (p *fleetPlan) build() error {
	f, err := zones.BuildFleet(zones.FleetConfig{Zones: 10, NodesPerZone: 100, CracsPerZone: 2, Seed: 2})
	if err != nil {
		return err
	}
	if p.dc, err = f.Assemble(); err != nil {
		return err
	}
	if p.tm, err = thermal.New(p.dc); err != nil {
		return err
	}
	part, err := zones.PartitionDataCenter(p.dc, 0)
	if err != nil {
		return err
	}
	zs, err := zones.NewSolverFromPartition(part, p.tm, zones.Config{})
	if err != nil {
		return err
	}
	out := make([]float64, p.dc.NCRAC())
	for i := range out {
		out[i] = 15
	}
	if p.s1, err = zs.Solve(context.Background(), out); err != nil {
		return err
	}
	opts := assign.DefaultOptions()
	ts, err := assign.NewThreeStageSolver(p.dc, p.tm, opts)
	if err != nil {
		return err
	}
	if p.plan, err = ts.FinishFromStage1(context.Background(), p.s1); err != nil {
		return err
	}
	p.arrs = make([]*pwl.Func, len(p.dc.NodeTypes))
	for typ := range p.arrs {
		if p.arrs[typ], err = assign.ARR(p.dc, typ, opts.Psi); err != nil {
			return err
		}
	}
	return nil
}

// TestStage2AllocsPerCall pins Stage 2 to a constant number of
// allocations per call on the 1k-node fleet: the result, one core-power
// table per node type and one targets scratch, never one per node.
func TestStage2AllocsPerCall(t *testing.T) {
	p := getFleet1k(t)
	want, err := assign.Stage2(p.dc, p.arrs, p.s1)
	if err != nil {
		t.Fatal(err)
	}
	for k := range want {
		if want[k] != p.plan.PStates[k] {
			t.Fatalf("core %d: Stage2 P-state %d, plan %d", k, want[k], p.plan.PStates[k])
		}
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := assign.Stage2(p.dc, p.arrs, p.s1); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(3 + 2*len(p.dc.NodeTypes)); allocs > limit {
		t.Errorf("Stage2 on %d nodes: %v allocs per call, want at most %v", len(p.dc.Nodes), allocs, limit)
	}
}
