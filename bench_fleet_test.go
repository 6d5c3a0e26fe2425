// Fleet-scale benchmarks for the zone-decomposed Stage-1 solver
// (internal/zones). Each point solves a multi-zone fleet of 100-node
// zones at fixed CRAC outlets and reports ns/node — wall time per solve
// divided by the fleet's node count — so the 1k/10k/50k points are
// directly comparable: linear-or-better scaling means the 10k ns/node
// stays at or below the 1k point. cmd/benchcheck gates exactly that
// ratio (see fleet checks there); `make bench-compare` publishes the
// family as BENCH_fleet.json.
//
// The 50k point takes tens of seconds per iteration and is skipped
// unless TAPO_BENCH_50K is set.
//
// BenchmarkFleetReadback times the Stage-3 plan readback at the 1k and 10k
// sizes and reports ns/core; no gate reads it. BenchmarkFleetVerify times
// assign.Verify on a 1k-node cap step's plan (ns/core, allocs/op); it has
// no 10k point, whose dense assembled α would be ~800 MB.
package thermaldc_test

import (
	"context"
	"os"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/thermal"
	"thermaldc/internal/zones"
)

// fleetCache reuses the built fleets across sub-benchmarks; the three
// shared zone variants (scenario + layout builds) dominate setup cost,
// so building once keeps `-bench Fleet` interactive.
var fleetCache = map[int]*zones.Fleet{}

// getFleet returns a cached fleet of nz zones × 100 nodes × 2 CRACs.
func getFleet(b *testing.B, nz int) *zones.Fleet {
	b.Helper()
	if f, ok := fleetCache[nz]; ok {
		return f
	}
	f, err := zones.BuildFleet(zones.FleetConfig{
		Zones:        nz,
		NodesPerZone: 100,
		CracsPerZone: 2,
		Seed:         2,
	})
	if err != nil {
		b.Fatal(err)
	}
	fleetCache[nz] = f
	return f
}

// BenchmarkFleetStage1 is the fleet-scale family: a full price-coordinated
// Stage-1 solve per iteration, warm — the first solve sizes the per-zone
// workspaces and fills each zone's cut pool outside the timer. The cap and
// outlets never change, so every iteration measures a re-solve on the
// retained pools: round 0 is skipped when the cached full-budget samples
// settle it, and the master pour is confirmed by one LP per zone plus any
// rounds the pool still needs.
func BenchmarkFleetStage1(b *testing.B) {
	for _, sz := range []struct {
		name  string
		zones int
	}{
		{"1k", 10},
		{"10k", 100},
		{"50k", 500},
	} {
		b.Run(sz.name, func(b *testing.B) {
			if sz.zones >= 500 && os.Getenv("TAPO_BENCH_50K") == "" {
				b.Skip("set TAPO_BENCH_50K=1 to run the 50k-node point")
			}
			f := getFleet(b, sz.zones)
			zs, err := zones.NewFleetSolver(f, zones.Config{})
			if err != nil {
				b.Fatal(err)
			}
			out := make([]float64, f.NumCRACs())
			for i := range out {
				out[i] = 15
			}
			ctx := context.Background()
			if _, err := zs.Solve(ctx, out); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := zs.Solve(ctx, out); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(f.NumNodes()), "ns/node")
		})
	}

	// zone-warm-resolve pins the zero-allocation contract of the warm
	// re-solve on retained cut pools with telemetry off: serial fan-out
	// (no goroutines), no recorder, and the scratch entry point that
	// reuses the solver-owned result buffers. cmd/benchcheck fails
	// the fleet family if this reports any allocs/op.
	b.Run("zone-warm-resolve", func(b *testing.B) {
		f := getFleet(b, 10)
		zs, err := zones.NewFleetSolver(f, zones.Config{Parallelism: 1})
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float64, f.NumCRACs())
		for i := range out {
			out[i] = 15
		}
		ctx := context.Background()
		if _, err := zs.SolveScratch(ctx, out); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := zs.SolveScratch(ctx, out); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFleetReadback is one warm Stage-3 solve per iteration on the
// 1k- and 10k-node fleets: grouping the cores by (node type, P-state),
// the patched group LP, and the per-core readback into TC. The data center
// holds the fleet's nodes only: Stage 3 reads no thermal data, and a dense
// assembled α would be ~800 MB at 10k nodes. ns/core stays flat when every
// per-core loop is linear in the core count.
func BenchmarkFleetReadback(b *testing.B) {
	for _, sz := range []struct {
		name  string
		zones int
	}{
		{"1k", 10},
		{"10k", 100},
	} {
		b.Run(sz.name, func(b *testing.B) {
			f := getFleet(b, sz.zones)
			base := f.Variants[0].DC
			dc := &model.DataCenter{NodeTypes: base.NodeTypes, TaskTypes: base.TaskTypes, ECS: base.ECS}
			for _, v := range f.ZoneVariant {
				dc.Nodes = append(dc.Nodes, f.Variants[v].DC.Nodes...)
			}
			pstates := make([]int, dc.NumCores())
			for k := range pstates {
				pstates[k] = k % 3
			}
			s := assign.NewStage3Solver(dc)
			if _, err := s.Solve(pstates); err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := s.Solve(pstates); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(pstates)), "ns/core")
		})
	}
}

// verifySink keeps BenchmarkFleetVerify's calls from being optimized away.
var verifySink []assign.Violation

// BenchmarkFleetVerify is one assign.Verify per iteration of the plan a
// warm cap step produces on the 1k-node fleet at 15 °C outlets: the
// node-blocked pass over TC for constraints 1–3, node powers, and the
// banded G·PCN product for constraints 4–5.
func BenchmarkFleetVerify(b *testing.B) {
	b.Run("1k", func(b *testing.B) {
		f := getFleet(b, 10)
		dc, err := f.Assemble()
		if err != nil {
			b.Fatal(err)
		}
		tm, err := thermal.New(dc)
		if err != nil {
			b.Fatal(err)
		}
		zs, err := zones.NewFleetSolver(f, zones.Config{})
		if err != nil {
			b.Fatal(err)
		}
		out := make([]float64, f.NumCRACs())
		for i := range out {
			out[i] = 15
		}
		ctx := context.Background()
		s1, err := zs.Solve(ctx, out)
		if err != nil {
			b.Fatal(err)
		}
		ts, err := assign.NewThreeStageSolver(dc, tm, assign.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		plan, err := ts.FinishFromStage1(ctx, s1)
		if err != nil {
			b.Fatal(err)
		}
		if vs := assign.Verify(dc, tm, plan, 1e-6); len(vs) != 0 {
			b.Fatalf("plan fails Verify: %v", vs[0])
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			verifySink = assign.Verify(dc, tm, plan, 1e-6)
		}
		b.StopTimer()
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(plan.PStates)), "ns/core")
	})
}
