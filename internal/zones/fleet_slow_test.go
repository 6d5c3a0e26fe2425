//go:build slow

package zones

import (
	"context"
	"testing"
)

// TestFleetSmoke1k solves a 1k-node multi-zone fleet end to end and checks
// the decomposition's invariants: coordination converges, the assembled
// result respects the shared cap, every zone's budget is honored by its
// retained solution, and the per-node vectors cover the whole fleet. This
// is the `make ci` guard that fleet-scale solves keep working without
// paying benchmark wall time.
func TestFleetSmoke1k(t *testing.T) {
	f, err := BuildFleet(FleetConfig{Zones: 10, NodesPerZone: 100, CracsPerZone: 2, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	zs, err := NewFleetSolver(f, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := make([]float64, f.NumCRACs())
	for i := range out {
		out[i] = 15
	}
	res, err := zs.Solve(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	st := zs.LastStats()
	if !st.Converged || st.Fallback {
		t.Fatalf("coordination did not converge cleanly: %+v", st)
	}
	if !res.Feasible {
		t.Fatal("fleet solve reported infeasible")
	}
	if res.LinearPower > f.Pconst*(1+1e-6) {
		t.Errorf("LP power ledger %.6f kW exceeds the shared cap %.6f kW", res.LinearPower, f.Pconst)
	}
	if got := len(res.NodePower); got != f.NumNodes() {
		t.Fatalf("result covers %d nodes, want %d", got, f.NumNodes())
	}
	for i, p := range res.NodePower {
		if p < 0 {
			t.Fatalf("node %d assigned negative power %g", i, p)
		}
	}
	// Zone budgets must partition the cap: retained per-zone LP power stays
	// within each proposed budget, and the proposals sum to at most P.
	sum := 0.0
	for zi, z := range zs.zones {
		if !z.best.valid {
			t.Fatalf("zone %d retained no solution", zi)
		}
		if z.best.linPow > z.budget*(1+1e-6) {
			t.Errorf("zone %d draws %.6f kW over its %.6f kW budget", zi, z.best.linPow, z.budget)
		}
		sum += z.best.linPow
	}
	if sum > f.Pconst*(1+1e-6) {
		t.Errorf("zone draws sum to %.6f kW over the %.6f kW cap", sum, f.Pconst)
	}
	if st.Rounds == 0 && !st.Shortcut {
		t.Error("neither shortcut nor coordination rounds recorded")
	}
}
