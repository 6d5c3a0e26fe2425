package zones

import (
	"context"
	"math"
	"reflect"
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/model"
	"thermaldc/internal/solvererr"
	"thermaldc/internal/stats"
	"thermaldc/internal/thermal"
)

// assembled materializes a fleet and partitions it back into zones. The
// partition-path solver reads the cap from the returned model's Pconst on
// every Solve, so a test steps the cap by writing dc.Pconst.
func assembled(t *testing.T, f *Fleet) (*model.DataCenter, *thermal.Model, *Partition) {
	t.Helper()
	dc, err := f.Assemble()
	if err != nil {
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
	return dc, tm, part
}

// seededCaps draws n caps uniformly within ±band of base.
func seededCaps(seed int64, n int, base, band float64) []float64 {
	rng := stats.NewRand(seed)
	caps := make([]float64, n)
	for i := range caps {
		caps[i] = base * (1 + stats.Uniform(rng, -band, band))
	}
	return caps
}

// outletsKept reports whether every zone was last sampled at out.
func outletsKept(zs *Solver, out []float64) bool {
	for _, z := range zs.zones {
		for li, gi := range z.cracIdx {
			if z.out[li] != out[gi] {
				return false
			}
		}
	}
	return true
}

// poolSize returns the total number of retained cuts across zones.
func poolSize(zs *Solver) int {
	n := 0
	for _, z := range zs.zones {
		n += len(z.cuts)
	}
	return n
}

// TestCutPoolRetention steps one solver through seeded cap sequences at
// fixed outlets and checks every step against a freshly built solver: the
// retained cuts and the cached full-budget samples must never change the
// optimum (within Tol) or an error's kind, every plan must pass
// assign.Verify, an outlet change must clear that zone's pool, and once
// warm the pool must not grow over caps it has not seen. The two fleets place
// the awkward caps differently: with three zones every zone's full draw
// fits under a cap that the base powers still exceed; with two, a cap
// above the base powers can bind one zone even at the full budget.
func TestCutPoolRetention(t *testing.T) {
	for _, tc := range []struct {
		name       string
		zones      int
		baseWindow bool // max full draw < Σ base power
	}{
		{"three zones", 3, true},
		{"two zones", 2, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFleet(t, FleetConfig{
				Zones: tc.zones, NodesPerZone: 10, CracsPerZone: 2, Variants: 2, Seed: 5, PconstFraction: 0.3,
			})
			testCutPoolRetention(t, f, tc.baseWindow)
		})
	}
}

func testCutPoolRetention(t *testing.T, f *Fleet, baseWindow bool) {
	dc, tm, part := assembled(t, f)
	ctx := context.Background()
	tol := (Config{}).withDefaults().Tol
	home := feasibleOutlets(dc.NCRAC())
	moved := append([]float64(nil), home...)
	moved[1] = 14
	base := dc.Pconst

	// Probe every zone's full draw and base power with the cap out of
	// the way.
	probe, err := NewSolverFromPartition(part, tm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	dc.Pconst = 100 * base
	if _, err := probe.Solve(ctx, home); err != nil {
		t.Fatal(err)
	}
	sumBase, sumLin, maxLin := 0.0, 0.0, 0.0
	for _, z := range probe.zones {
		sumBase += z.full.basePow
		sumLin += z.full.linPow
		maxLin = math.Max(maxLin, z.full.linPow)
	}
	if (maxLin < sumBase) != baseWindow {
		t.Fatalf("fleet shape changed: max full draw %g kW, Σ base power %g kW", maxLin, sumBase)
	}

	const n = 30
	caps := seededCaps(17, n, base, 0.25)
	caps[7] = 100 * base // above the joint full draw: the shortcut fires
	if baseWindow {
		// Every zone's full draw fits, yet the base powers do not.
		caps[19] = (maxLin + sumBase) / 2
	} else {
		caps[19] = sumBase / 2
		// Above the base powers but below one zone's full draw: that
		// zone's power row binds in round 0, so its full-budget sample
		// must not be trusted at the higher caps that follow.
		caps[3] = sumBase + 0.1*(maxLin-sumBase)
		caps[11] = sumBase + 0.5*(maxLin-sumBase)
		// The steps up from there still bind, and their optimal splits
		// give the zones more than those samples' budgets.
		caps[4] = 0.97 * sumLin
		caps[12] = 0.95 * sumLin
	}

	zs, err := NewSolverFromPartition(part, tm, Config{})
	if err != nil {
		t.Fatal(err)
	}
	ts, err := assign.NewThreeStageSolver(dc, tm, assign.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	steps, shortcuts, rounds, skips, failures, binding := 0, 0, 0, 0, 0, 0
	step := func(i int, out []float64) {
		t.Helper()
		P := caps[i]
		dc.Pconst = P
		if outletsKept(zs, out) && zs.fullSamplesSuffice(P, budgetTolerance*math.Max(1, P)) {
			skips++
		}
		got, err := zs.Solve(ctx, out)
		fresh, ferr := NewSolverFromPartition(part, tm, Config{})
		if ferr != nil {
			t.Fatal(ferr)
		}
		want, werr := fresh.Solve(ctx, out)
		steps++
		if err != nil || werr != nil {
			if err == nil || werr == nil || solvererr.Classify(err) != solvererr.Classify(werr) {
				t.Fatalf("step %d, cap %g: retained err %v, fresh err %v", i, P, err, werr)
			}
			failures++
			return
		}
		st := zs.LastStats()
		if st.Fallback != fresh.LastStats().Fallback {
			t.Fatalf("step %d, cap %g: retained fallback %v, fresh %v", i, P, st.Fallback, fresh.LastStats().Fallback)
		}
		if st.Fallback {
			if !reflect.DeepEqual(got, want) {
				t.Errorf("step %d, cap %g: fallback results differ", i, P)
			}
			return
		}
		if !st.Converged {
			t.Fatalf("step %d, cap %g: not converged: %+v", i, P, st)
		}
		if st.Shortcut {
			shortcuts++
		}
		rounds += st.Rounds
		for _, z := range fresh.zones {
			if !z.full.valid {
				binding++
				break
			}
		}
		scale := math.Max(1, math.Max(math.Abs(st.UpperBound), math.Abs(fresh.LastStats().UpperBound)))
		if d := math.Abs(got.PredictedARR - want.PredictedARR); d > tol*scale {
			t.Errorf("step %d, cap %g: objective %.12g, fresh solver %.12g (diff %.3g > %.3g)",
				i, P, got.PredictedARR, want.PredictedARR, d, tol*scale)
		}
		plan, err := ts.FinishFromStage1(ctx, got)
		if err != nil {
			t.Fatalf("step %d, cap %g: FinishFromStage1: %v", i, P, err)
		}
		if v := assign.Verify(dc, tm, plan, 1e-6); len(v) > 0 {
			t.Errorf("step %d, cap %g: %d Verify violations, first %v", i, P, len(v), v[0])
		}
	}
	pass := func(out []float64) {
		for i := range caps {
			step(i, out)
		}
	}
	// unseen steps through new caps in the same band.
	unseen := func(seed int64) {
		caps = seededCaps(seed, n, base, 0.25)
		pass(home)
	}
	// switchTo solves cap 0 at new outlets: the zone owning CRAC 1 must
	// start a fresh pool (only this solve's cuts), every other zone keeps
	// its own.
	switchTo := func(label string, out []float64) {
		t.Helper()
		sizes := make([]int, len(zs.zones))
		for zi, z := range zs.zones {
			sizes[zi] = len(z.cuts)
		}
		step(0, out)
		fresh := zs.LastStats().Rounds + 1
		for zi, z := range zs.zones {
			moved := z.cracIdx[0] <= 1 && 1 <= z.cracIdx[len(z.cracIdx)-1]
			switch {
			case moved && sizes[zi] <= fresh:
				t.Errorf("%s: zone %d held only %d cuts before; the reset check is vacuous", label, zi, sizes[zi])
			case moved && len(z.cuts) > fresh:
				t.Errorf("%s: zone %d kept %d cuts across its outlet change (%d rounds)", label, zi, len(z.cuts), fresh-1)
			case !moved && len(z.cuts) < sizes[zi]:
				t.Errorf("%s: zone %d lost cuts (%d → %d) though its outlets did not move", label, zi, sizes[zi], len(z.cuts))
			}
		}
	}

	pass(home)
	switchTo("outlet change", moved)
	for i := 1; i < n; i++ {
		step(i, moved)
	}
	switchTo("return", home)
	pass(home)
	// Once V's pieces in the band are known, new caps only resample known
	// lines: the pool stops growing.
	unseen(29)
	afterN := poolSize(zs)
	unseen(31)
	if after2N := poolSize(zs); after2N != afterN {
		t.Errorf("pool grew from %d to %d cuts over %d unseen caps", afterN, after2N, n)
	}
	if shortcuts == 0 || rounds == 0 || skips == 0 || failures == 0 || (binding == 0) != baseWindow {
		t.Errorf("sequence missed a path: %d shortcuts, %d rounds, %d skipped round 0s, %d failures, %d binding full budgets",
			shortcuts, rounds, skips, failures, binding)
	}
	t.Logf("%d steps: %d shortcuts, %d rounds, %d skipped round 0s, %d failures, %d binding full budgets; pool %d cuts",
		steps, shortcuts, rounds, skips, failures, binding, afterN)
}
