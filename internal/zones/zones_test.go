package zones

import (
	"context"
	"math"
	"reflect"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/scenario"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// feasibleOutlets returns the uniform 15 °C outlet vector the existing
// Stage-1 tests solve at: cold enough to keep inlets under redline, well
// inside the default search window.
func feasibleOutlets(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = 15
	}
	return out
}

func buildScenario(t *testing.T, nodes, cracs int, frac float64, seed int64) *scenario.Scenario {
	t.Helper()
	cfg := scenario.Default(0.3, 0.1, seed)
	cfg.NNodes, cfg.NCracs = nodes, cracs
	cfg.PconstFraction = frac
	sc, err := scenario.Build(cfg)
	if err != nil {
		t.Fatalf("scenario.Build: %v", err)
	}
	return sc
}

func TestPartitionSingleZone(t *testing.T) {
	sc := buildScenario(t, 20, 2, 0.5, 1)
	part, err := PartitionDataCenter(sc.DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Zones) != 1 {
		t.Fatalf("paper-style single room split into %d zones", len(part.Zones))
	}
	if part.MaxCross != 0 {
		t.Errorf("MaxCross = %g, want 0", part.MaxCross)
	}
	z := part.Zones[0]
	if len(z.CRACs) != 2 || len(z.Nodes) != 20 {
		t.Fatalf("zone has %d CRACs, %d nodes", len(z.CRACs), len(z.Nodes))
	}
	if z.DC == sc.DC {
		t.Fatal("single zone must be a private shallow copy, not the parent itself")
	}
	if &z.DC.Alpha[0][0] != &sc.DC.Alpha[0][0] {
		t.Error("single zone should share the parent's Alpha storage")
	}
}

// TestSingleZoneBitIdentical is the paper-scale differential guarantee:
// on a floor that does not decompose (one thermal component), the
// zone-decomposed solve must reproduce the monolithic Stage-1 result bit
// for bit, including the ledgers, the dual, and the feasibility verdict.
func TestSingleZoneBitIdentical(t *testing.T) {
	sc := buildScenario(t, 30, 3, 0.5, 3)
	part, err := PartitionDataCenter(sc.DC, 0)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := NewSolverFromPartition(part, sc.Thermal, Config{})
	if err != nil {
		t.Fatal(err)
	}
	arrs, err := assign.NodeARRs(sc.DC, 50)
	if err != nil {
		t.Fatal(err)
	}
	out := feasibleOutlets(sc.DC.NCRAC())
	want, err := assign.Stage1Fixed(sc.DC, sc.Thermal, arrs, out)
	if err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	got, err := zs.Solve(context.Background(), out)
	if err != nil {
		t.Fatalf("decomposed: %v", err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("single-zone decomposed result differs from monolithic:\n got %+v\nwant %+v", got, want)
	}
	st := zs.LastStats()
	if !st.Shortcut || !st.Converged || st.Rounds != 0 {
		t.Errorf("single zone must settle via the shortcut: %+v", st)
	}
}

func buildFleet(t *testing.T, cfg FleetConfig) *Fleet {
	t.Helper()
	f, err := BuildFleet(cfg)
	if err != nil {
		t.Fatalf("BuildFleet: %v", err)
	}
	return f
}

// relDiff returns |a−b| / max(1, |a|, |b|).
func relDiff(a, b float64) float64 {
	return math.Abs(a-b) / math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// solveMonolithic solves the assembled fleet's Stage-1 LP directly.
func solveMonolithic(t *testing.T, f *Fleet, out []float64) *assign.Stage1Result {
	t.Helper()
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	tm, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	arrs, err := assign.NodeARRs(dc, 50)
	if err != nil {
		t.Fatal(err)
	}
	res, err := assign.Stage1Fixed(dc, tm, arrs, out)
	if err != nil {
		t.Fatalf("monolithic: %v", err)
	}
	return res
}

// TestFleetMatchesMonolithic sweeps cap tightness and seeds: the
// zone-decomposed objective must match the monolithic LP on the assembled
// model within the coordination tolerance, whether or not the cap binds.
func TestFleetMatchesMonolithic(t *testing.T) {
	for _, frac := range []float64{0.3, 0.6, 0.9} {
		for _, seed := range []int64{1, 7} {
			f := buildFleet(t, FleetConfig{
				Zones: 3, NodesPerZone: 10, CracsPerZone: 2, Variants: 2,
				Seed: seed, PconstFraction: frac,
			})
			out := feasibleOutlets(f.NumCRACs())
			want := solveMonolithic(t, f, out)

			zs, err := NewFleetSolver(f, Config{})
			if err != nil {
				t.Fatal(err)
			}
			got, err := zs.Solve(context.Background(), out)
			if err != nil {
				t.Fatalf("frac=%g seed=%d: %v", frac, seed, err)
			}
			st := zs.LastStats()
			if !st.Converged {
				t.Fatalf("frac=%g seed=%d: not converged: %+v", frac, seed, st)
			}
			if d := relDiff(got.PredictedARR, want.PredictedARR); d > 1e-6 {
				t.Errorf("frac=%g seed=%d: objective %.12g vs monolithic %.12g (rel %.3g, stats %+v)",
					frac, seed, got.PredictedARR, want.PredictedARR, d, st)
			}
			if got.Feasible != want.Feasible {
				t.Errorf("frac=%g seed=%d: Feasible=%v, monolithic %v", frac, seed, got.Feasible, want.Feasible)
			}
			// The assembled ledger must be self-consistent and respect the cap
			// whenever the verdict says so.
			if got.Feasible && got.TotalPower > f.Pconst+1e-6 {
				t.Errorf("frac=%g seed=%d: feasible but TotalPower %.9g > cap %.9g",
					frac, seed, got.TotalPower, f.Pconst)
			}
		}
	}
}

// TestPartitionOfAssembledFleet closes the loop through the partitioner:
// assembling a fleet and re-partitioning its block-diagonal Alpha must
// recover the zones, and the partition-path solver (with its monolithic
// fallback armed) must agree with the monolithic LP.
func TestPartitionOfAssembledFleet(t *testing.T) {
	f := buildFleet(t, FleetConfig{
		Zones: 3, NodesPerZone: 10, CracsPerZone: 2, Variants: 3, Seed: 3, PconstFraction: 0.3,
	})
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionDataCenter(dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Zones) != 3 {
		t.Fatalf("recovered %d zones, want 3", len(part.Zones))
	}
	for i, z := range part.Zones {
		if len(z.CRACs) != 2 || len(z.Nodes) != 10 {
			t.Errorf("zone %d: %d CRACs, %d nodes", i, len(z.CRACs), len(z.Nodes))
		}
	}
	tm, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	zs, err := NewSolverFromPartition(part, tm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := feasibleOutlets(dc.NCRAC())
	got, err := zs.Solve(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	arrs, err := assign.NodeARRs(dc, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := assign.Stage1Fixed(dc, tm, arrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.PredictedARR, want.PredictedARR); d > 1e-6 {
		t.Errorf("objective %.12g vs monolithic %.12g (rel %.3g)", got.PredictedARR, want.PredictedARR, d)
	}
	if zs.LastStats().Fallback {
		t.Errorf("decomposed solve fell back to the monolithic path: %+v", zs.LastStats())
	}
}

// loopDC hand-builds a block-diagonal data center: zone z is one CRAC in
// a perfect air loop with its nodes (every node inlet is the CRAC outlet,
// the CRAC inlet is the flow-weighted mix of its nodes' outlets), with
// flows matched so the mixing matrix rows stay stochastic. The Appendix-B
// layout generator cannot place such degenerate rooms; building them by
// hand keeps the zones exactly independent and exactly coolable. zones
// lists (node type, node count) per zone; Pconst is left to the caller.
func loopDC(t *testing.T, base *model.DataCenter, zones [][2]int) *model.DataCenter {
	t.Helper()
	Z := len(zones)
	nn := 0
	for _, zc := range zones {
		nn += zc[1]
	}
	n := Z + nn
	dc := &model.DataCenter{
		NodeTypes:   base.NodeTypes,
		TaskTypes:   base.TaskTypes,
		ECS:         base.ECS,
		RedlineNode: base.RedlineNode,
		RedlineCRAC: base.RedlineCRAC,
		Alpha:       make([][]float64, n),
	}
	for i := range dc.Alpha {
		dc.Alpha[i] = make([]float64, n)
	}
	off := 0
	for z, zc := range zones {
		typ, count := zc[0], zc[1]
		dc.CRACs = append(dc.CRACs, model.CRAC{Flow: float64(count) * dc.NodeTypes[typ].AirFlow})
		for j := 0; j < count; j++ {
			dc.Nodes = append(dc.Nodes, model.Node{Type: typ, HotAisle: z, Rack: z})
			dc.Alpha[z][Z+off+j] = 1 / float64(count)
			dc.Alpha[Z+off+j][z] = 1
		}
		off += count
	}
	return dc
}

// TestOneNodePerZone exercises the degenerate zone shape — one node, one
// CRAC per zone — on a hand-built floor, going through the partitioner
// rather than the fleet builder.
func TestOneNodePerZone(t *testing.T) {
	base := buildScenario(t, 20, 2, 0.5, 1).DC
	const Z = 3
	dc := loopDC(t, base, [][2]int{
		{0, 1}, {1 % len(base.NodeTypes), 1}, {0, 1},
	})
	tm, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	pmin, pmax, err := assign.PowerBounds(dc, tm, tempsearch.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	dc.Pconst = pmin + 0.4*(pmax-pmin)
	if err := dc.Validate(); err != nil {
		t.Fatal(err)
	}

	part, err := PartitionDataCenter(dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Zones) != Z {
		t.Fatalf("partitioned into %d zones, want %d", len(part.Zones), Z)
	}
	for i, z := range part.Zones {
		if len(z.CRACs) != 1 || len(z.Nodes) != 1 {
			t.Errorf("zone %d: %d CRACs, %d nodes, want 1/1", i, len(z.CRACs), len(z.Nodes))
		}
	}
	zs, err := NewSolverFromPartition(part, tm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := feasibleOutlets(Z)
	got, err := zs.Solve(context.Background(), out)
	if err != nil {
		t.Fatal(err)
	}
	arrs, err := assign.NodeARRs(dc, 50)
	if err != nil {
		t.Fatal(err)
	}
	want, err := assign.Stage1Fixed(dc, tm, arrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.PredictedARR, want.PredictedARR); d > 1e-6 {
		t.Errorf("objective %.12g vs monolithic %.12g (rel %.3g, stats %+v)",
			got.PredictedARR, want.PredictedARR, d, zs.LastStats())
	}
	if zs.LastStats().Fallback {
		t.Errorf("one-node-per-zone solve fell back: %+v", zs.LastStats())
	}
}

// TestCapBindingInOneZone pins the asymmetric degenerate case from the
// issue: the shared cap binds in exactly one zone. Zone 0 holds one node
// of the steeper-ARR type; zone 1 holds four nodes of the type whose
// flattest envelope segment has the strictly smallest reward-per-kW. A
// cap trimmed slightly below the joint full draw therefore cuts only
// zone 1's flattest tranche: the optimum keeps zone 0 at its saturated
// value (power row slack, shadow price 0) and squeezes zone 1 (positive
// shadow price) — and the coordination loop must discover that split.
func TestCapBindingInOneZone(t *testing.T) {
	base := buildScenario(t, 20, 2, 0.5, 1).DC
	if len(base.NodeTypes) < 2 {
		t.Fatalf("need two node types, have %d", len(base.NodeTypes))
	}
	arrs, err := assign.NodeARRs(base, 50)
	if err != nil {
		t.Fatal(err)
	}
	// Pick steep = type with the larger flattest-segment slope. With one
	// CRAC per zone at the same outlet temperature, the linearized CRAC
	// power coefficient is identical across zones, so this ordering in
	// reward-per-core-kW is also the ordering in reward-per-budget-kW.
	flattest := func(typ int) float64 {
		segs := arrs[typ].Scale(float64(base.NodeTypes[typ].NumCores)).Segments()
		return segs[len(segs)-1].Slope
	}
	steep, flat := 0, 1
	if flattest(1) > flattest(0) {
		steep, flat = 1, 0
	}
	if flattest(steep) <= flattest(flat) {
		t.Fatalf("node types have equal flattest slopes (%g); cannot order zones", flattest(steep))
	}

	dc := loopDC(t, base, [][2]int{{steep, 1}, {flat, 4}})
	dc.Pconst = 1000 // generous: measure the unconstrained full draw first
	if err := dc.Validate(); err != nil {
		t.Fatal(err)
	}
	tm, err := thermal.New(dc)
	if err != nil {
		t.Fatal(err)
	}
	part, err := PartitionDataCenter(dc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(part.Zones) != 2 {
		t.Fatalf("partitioned into %d zones, want 2", len(part.Zones))
	}
	zs, err := NewSolverFromPartition(part, tm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	out := feasibleOutlets(2)
	ctx := context.Background()
	full, err := zs.Solve(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	if !zs.LastStats().Shortcut {
		t.Fatalf("generous cap should not need coordination: %+v", zs.LastStats())
	}
	v0full, v1full := zs.zones[0].best.value, zs.zones[1].best.value

	// Trim the cap into zone 1's flattest tranche (4 nodes × its final
	// segment is far longer than 0.25 kW) and re-solve on the same solver:
	// the partition path reads the parent's live Pconst.
	dc.Pconst = full.LinearPower - 0.25
	got, err := zs.Solve(ctx, out)
	if err != nil {
		t.Fatal(err)
	}
	st := zs.LastStats()
	if st.Shortcut || !st.Converged || st.Rounds == 0 {
		t.Fatalf("trimmed cap should force converged coordination rounds: %+v", st)
	}
	if st.Fallback {
		t.Fatalf("decomposed solve fell back: %+v", st)
	}

	// Exactly one zone loses value, and only that zone prices power.
	z0, z1 := zs.zones[0], zs.zones[1]
	if z0.best.value < v0full-1e-6 {
		t.Errorf("zone 0 lost value (%.9g vs %.9g); the cap should bind only in zone 1",
			z0.best.value, v0full)
	}
	if z1.best.value > v1full-1e-4 {
		t.Errorf("zone 1 kept its unconstrained value (%.9g vs %.9g); the cap did not bind there",
			z1.best.value, v1full)
	}
	if z1.best.price <= 0 {
		t.Errorf("zone 1's power shadow price = %g, want > 0", z1.best.price)
	}

	// And the split is still optimal: compare with the monolithic LP.
	want, err := assign.Stage1Fixed(dc, tm, arrs, out)
	if err != nil {
		t.Fatal(err)
	}
	if d := relDiff(got.PredictedARR, want.PredictedARR); d > 1e-6 {
		t.Errorf("objective %.12g vs monolithic %.12g (rel %.3g, stats %+v)",
			got.PredictedARR, want.PredictedARR, d, st)
	}
	if got.LinearPower > dc.Pconst+1e-6 {
		t.Errorf("LinearPower %.9g exceeds cap %.9g", got.LinearPower, dc.Pconst)
	}
}

// TestParallelismInvariance: the fan-out worker count must not change a
// single bit of the result, neither of one solve nor of any step of a cap
// sequence solved on retained cut pools.
func TestParallelismInvariance(t *testing.T) {
	f := buildFleet(t, FleetConfig{
		Zones: 3, NodesPerZone: 8, CracsPerZone: 2, Variants: 2, Seed: 9, PconstFraction: 0.2,
	})
	out := feasibleOutlets(f.NumCRACs())
	var ref *assign.Stage1Result
	for _, par := range []int{1, 2, 8} {
		zs, err := NewFleetSolver(f, Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		res, err := zs.Solve(context.Background(), out)
		if err != nil {
			t.Fatalf("Parallelism=%d: %v", par, err)
		}
		if ref == nil {
			ref = res
			continue
		}
		if !reflect.DeepEqual(res, ref) {
			t.Errorf("Parallelism=%d: result differs from Parallelism=1", par)
		}
	}

	dc, tm, part := assembled(t, f)
	caps := seededCaps(23, 40, dc.Pconst, 0.1)
	type stepResult struct {
		res *assign.Stage1Result
		st  Stats
	}
	var refSeq []stepResult
	coordinated := 0
	for _, par := range []int{1, 2, 4} {
		zs, err := NewSolverFromPartition(part, tm, Config{Parallelism: par})
		if err != nil {
			t.Fatal(err)
		}
		for i, P := range caps {
			dc.Pconst = P
			res, err := zs.Solve(context.Background(), out)
			if err != nil {
				t.Fatalf("Parallelism=%d, step %d: %v", par, i, err)
			}
			got := stepResult{res, zs.LastStats()}
			if par == 1 {
				refSeq = append(refSeq, got)
				coordinated += got.st.Rounds
			} else if !reflect.DeepEqual(got, refSeq[i]) {
				t.Fatalf("Parallelism=%d, step %d (cap %g): result or stats differ from Parallelism=1", par, i, P)
			}
		}
	}
	if coordinated == 0 {
		t.Error("the cap never bound: no coordination round ran")
	}
}

// TestFleetCopiesScaleLinearly is a metamorphic property of the model: k
// thermally independent copies of one zone under the cap k·P can do no
// better and no worse than k times that zone alone under P, because the
// even split is optimal for identical concave value functions. The
// single zone settles in round 0; k = 4 under a binding cap must run the
// price-coordination master and still land on k× the single-zone value
// within gapTol. The property must also survive cap steps solved on
// the cut pools retained from earlier caps.
func TestFleetCopiesScaleLinearly(t *testing.T) {
	solve := func(k int) (float64, Stats) {
		f := buildFleet(t, FleetConfig{
			Zones: k, NodesPerZone: 10, CracsPerZone: 2, Variants: 1, Seed: 13,
		})
		zs, err := NewFleetSolver(f, Config{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := zs.Solve(context.Background(), feasibleOutlets(f.NumCRACs()))
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if !res.Feasible {
			t.Fatalf("k=%d: fleet solve infeasible", k)
		}
		return res.PredictedARR, zs.LastStats()
	}
	one, _ := solve(1)
	for _, k := range []int{1, 4} {
		got, st := solve(k)
		if k > 1 && st.Rounds == 0 {
			t.Fatalf("k=%d: the cap never bound, so the master did not run: %+v", k, st)
		}
		if d := relDiff(got, float64(k)*one); d > gapTol {
			t.Errorf("k=%d: value %.12g, want %d × %.12g (rel. diff %.3g)", k, got, k, one, d)
		}
	}

	// Cap steps: one solver per fleet steps through the same per-zone caps,
	// each scaled by k, keeping its cuts from step to step.
	fleet := func(k int) (*Solver, *model.DataCenter) {
		f := buildFleet(t, FleetConfig{
			Zones: k, NodesPerZone: 10, CracsPerZone: 2, Variants: 1, Seed: 13,
		})
		dc, tm, part := assembled(t, f)
		zs, err := NewSolverFromPartition(part, tm, Config{})
		if err != nil {
			t.Fatal(err)
		}
		return zs, dc
	}
	const k = 4
	single, sdc := fleet(1)
	copies, cdc := fleet(k)
	out1, outK := feasibleOutlets(sdc.NCRAC()), feasibleOutlets(cdc.NCRAC())
	retained := 0
	for i, P := range seededCaps(31, 12, sdc.Pconst, 0.3) {
		sdc.Pconst, cdc.Pconst = P, k*P
		one, err := single.Solve(context.Background(), out1)
		if err != nil {
			t.Fatalf("step %d, one zone: %v", i, err)
		}
		got, err := copies.Solve(context.Background(), outK)
		if err != nil {
			t.Fatalf("step %d, k=%d: %v", i, k, err)
		}
		st := copies.LastStats()
		if !st.Converged || st.Fallback {
			t.Fatalf("step %d, k=%d: %+v", i, k, st)
		}
		if i > 0 && st.Rounds > 0 {
			retained++
		}
		if d := relDiff(got.PredictedARR, k*one.PredictedARR); d > gapTol {
			t.Errorf("step %d: value %.12g, want %d × %.12g (rel. diff %.3g)",
				i, got.PredictedARR, k, one.PredictedARR, d)
		}
	}
	if retained == 0 {
		t.Error("no cap step after the first ran the master on retained cuts")
	}
}

// TestPartitionNotDecomposable: a thermal component with no CRAC (or no
// nodes) has no self-contained model; the partitioner must refuse rather
// than emit a broken zone.
func TestPartitionNotDecomposable(t *testing.T) {
	base := buildScenario(t, 20, 2, 0.5, 1).DC
	dc := loopDC(t, base, [][2]int{{0, 1}, {0, 1}})
	// Cut node 1 loose from CRAC 1: CRAC 1 and node 1 become singleton
	// components (CRAC-only and node-only).
	dc.Alpha[1][3], dc.Alpha[1][1] = 0, 1
	dc.Alpha[3][1], dc.Alpha[3][3] = 0, 1
	if _, err := PartitionDataCenter(dc, 0); err == nil {
		t.Fatal("expected a not-decomposable error for a CRAC-less component")
	}
}

// TestFleetAssembleValidates: the assembled fleet passes model.Validate
// (exercised inside Assemble) and its block structure is consistent.
func TestFleetAssembleValidates(t *testing.T) {
	f := buildFleet(t, FleetConfig{Zones: 2, NodesPerZone: 8, CracsPerZone: 2, Variants: 2, Seed: 21})
	dc, err := f.Assemble()
	if err != nil {
		t.Fatal(err)
	}
	if dc.NCN() != f.NumNodes() || dc.NCRAC() != f.NumCRACs() {
		t.Fatalf("assembled %d nodes/%d CRACs, want %d/%d", dc.NCN(), dc.NCRAC(), f.NumNodes(), f.NumCRACs())
	}
	if dc.Pconst != f.Pconst {
		t.Errorf("assembled Pconst %g, want %g", dc.Pconst, f.Pconst)
	}
	c := thermal.Components(dc.Alpha, 0)
	if c.NumComponents != 2 {
		t.Errorf("assembled Alpha has %d components, want 2", c.NumComponents)
	}
}
