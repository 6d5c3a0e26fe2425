package thermal_test

import (
	"testing"

	"thermaldc/internal/scenario"
	"thermaldc/internal/thermal"
	"thermaldc/internal/zones"
)

// TestNewMatchesDensePaperScale: paper-scale floors are one component, so
// New runs the dense arithmetic in identity order; it must still match the
// dense oracle bit for bit.
func TestNewMatchesDensePaperScale(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		sc, err := scenario.Build(scenario.Default(0.3, 0.1, seed))
		if err != nil {
			t.Fatal(err)
		}
		if c := thermal.Components(sc.DC.Alpha, 0); c.NumComponents != 1 {
			t.Fatalf("seed %d: paper-scale α has %d components; want 1", seed, c.NumComponents)
		}
		if err := thermal.MatchDenseOracle(sc.DC); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// matchFleet assembles a zoned fleet, whose zones are α's components and
// interleave in thermal order (every zone's CRACs precede every node), and
// holds New to the dense oracle on it.
func matchFleet(t *testing.T, cfg zones.FleetConfig) {
	t.Helper()
	if testing.Short() {
		t.Skip("factors a 1k-unit fleet densely")
	}
	f, err := zones.BuildFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if c := thermal.Components(dc.Alpha, 0); c.NumComponents != cfg.Zones {
		t.Fatalf("fleet α has %d components; want %d zones", c.NumComponents, cfg.Zones)
	}
	if err := thermal.MatchDenseOracle(dc); err != nil {
		t.Fatal(err)
	}
}

// TestNewMatchesDenseFleet10 is the fleet-capstep benchmark's fleet:
// 10 zones × (100 nodes + 2 CRACs).
func TestNewMatchesDenseFleet10(t *testing.T) {
	matchFleet(t, zones.FleetConfig{Zones: 10, NodesPerZone: 100, CracsPerZone: 2, Seed: 2})
}

// TestNewMatchesDenseFleet20 runs 20 smaller zones (50 nodes + 2 CRACs),
// which keeps the dense oracle near the 1k-unit cost while doubling the
// block count; zone z reuses variant z mod 3.
func TestNewMatchesDenseFleet20(t *testing.T) {
	matchFleet(t, zones.FleetConfig{Zones: 20, NodesPerZone: 50, CracsPerZone: 2, Seed: 3})
}
