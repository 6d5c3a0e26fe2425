package experiments

import (
	"context"
	"math"
	"testing"
	"time"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
	"thermaldc/internal/stats"
)

// TestSweepMatchesSerialCells: a sweep's result must equal, bit for bit,
// the one built by evaluating its cells serially in trial order, at every
// worker count (`make ci` runs this package at -cpu 1,2,4). The cell
// values make the float sums order-dependent (1 + 1e16 − 1e16 + 3 is 3 in
// trial order and 5 in reverse), and later trials finish first, so a pool
// that summed in completion order would fail here whenever it runs two
// cells at once.
func TestSweepMatchesSerialCells(t *testing.T) {
	vals := []float64{1, 1e16, -1e16, 3}
	cfg := SweepConfig{Trials: len(vals), BaseSeed: 1, Values: []float64{10, 20, 30}}
	cell := func(x float64, seed int64) (float64, float64) {
		trial := int(seed-cfg.BaseSeed) % 1000
		return x + vals[trial], 2*x + vals[len(vals)-1-trial]
	}
	eval := func(x float64, seed int64) (float64, float64, error) {
		trial := int(seed-cfg.BaseSeed) % 1000
		time.Sleep(time.Duration(cfg.Trials-trial) * 3 * time.Millisecond)
		bl, ts := cell(x, seed)
		return bl, ts, nil
	}
	got, err := runSweep(context.Background(), "synthetic", "x", cfg, eval)
	if err != nil {
		t.Fatal(err)
	}

	if len(got.Points) != len(cfg.Values) {
		t.Fatalf("%d points, want %d", len(got.Points), len(cfg.Values))
	}
	same := func(a, b stats.Summary) bool {
		return a.N == b.N && math.Float64bits(a.Mean) == math.Float64bits(b.Mean) &&
			math.Float64bits(a.StdDev) == math.Float64bits(b.StdDev) &&
			math.Float64bits(a.HalfCI95) == math.Float64bits(b.HalfCI95) &&
			math.Float64bits(a.Lo) == math.Float64bits(b.Lo) &&
			math.Float64bits(a.Hi) == math.Float64bits(b.Hi)
	}
	for p, x := range cfg.Values {
		var bl, ts, imp []float64
		for trial := 0; trial < cfg.Trials; trial++ {
			b, s := cell(x, cfg.BaseSeed+int64(1000*p+trial))
			bl = append(bl, b)
			ts = append(ts, s)
			imp = append(imp, 100*(s-b)/b)
		}
		pt := got.Points[p]
		if pt.X != x || !same(pt.Baseline, stats.Summarize(bl)) ||
			!same(pt.ThreeStage, stats.Summarize(ts)) || !same(pt.Improvement, stats.Summarize(imp)) {
			t.Errorf("point %g: %+v, want the serial trial-order summaries %+v / %+v / %+v",
				x, pt, stats.Summarize(bl), stats.Summarize(ts), stats.Summarize(imp))
		}
	}
}

// TestSweepKindsTable runs every sweep kind at tiny scale. Each result must
// carry the kind's printed Kind and XLabel and one point per value, and x
// must reach the cell: the last point must equal, bit for bit, both
// techniques run directly on the same seed with the swept field set here
// by hand.
func TestSweepKindsTable(t *testing.T) {
	if testing.Short() {
		t.Skip("sweeps in -short mode")
	}
	cases := []struct {
		kind, wantKind, wantLabel string
		values                    []float64
		set                       func(x float64, sc *scenario.Config, opts *assign.Options)
	}{
		{"powercap", "power-cap", "Pconst fraction", []float64{0.5, 0.35},
			func(x float64, sc *scenario.Config, _ *assign.Options) { sc.PconstFraction = x }},
		{"psi", "psi", "ψ (%)", []float64{50, 12.5},
			func(x float64, _ *scenario.Config, opts *assign.Options) { opts.Psi = x }},
		{"vprop", "vprop", "Vprop", []float64{0.3, 0.05},
			func(x float64, sc *scenario.Config, _ *assign.Options) { sc.Vprop = x }},
		{"static", "static-share", "static share", []float64{0.3, 0.1},
			func(x float64, sc *scenario.Config, _ *assign.Options) { sc.StaticShare = x }},
		{"hetero", "heterogeneity", "type-1 fraction", []float64{0.5, 0.98},
			func(x float64, sc *scenario.Config, _ *assign.Options) { sc.Type1Fraction = x }},
	}
	if got := SweepKinds(); len(got) != len(cases) {
		t.Fatalf("SweepKinds() = %q, want the %d kinds below", got, len(cases))
	}
	for _, c := range cases {
		t.Run(c.kind, func(t *testing.T) {
			cfg := DefaultSweepConfig(c.values)
			cfg.Trials, cfg.NNodes, cfg.NCracs = 1, 10, 2
			res, err := Sweep(context.Background(), c.kind, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if res.Kind != c.wantKind || res.XLabel != c.wantLabel {
				t.Errorf("Kind, XLabel = %q, %q, want %q, %q", res.Kind, res.XLabel, c.wantKind, c.wantLabel)
			}
			if len(res.Points) != len(c.values) {
				t.Fatalf("%d points, want %d", len(res.Points), len(c.values))
			}
			p := len(c.values) - 1
			x := c.values[p]
			scCfg := scenario.Default(cfg.StaticShare, cfg.Vprop, cfg.BaseSeed+int64(1000*p))
			scCfg.NCracs, scCfg.NNodes = cfg.NCracs, cfg.NNodes
			opts := cfg.Options
			c.set(x, &scCfg, &opts)
			sc, err := scenario.Build(scCfg)
			if err != nil {
				t.Fatal(err)
			}
			bl, err := assign.Baseline(sc.DC, sc.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			ts, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := res.Points[p]
			if got.X != x || got.Baseline.Mean != bl.RewardRate || got.ThreeStage.Mean != ts.RewardRate() {
				t.Errorf("point %d = (x %g, baseline %g, three-stage %g), want (%g, %g, %g) from the scenario built at x",
					p, got.X, got.Baseline.Mean, got.ThreeStage.Mean, x, bl.RewardRate, ts.RewardRate())
			}
		})
	}
}

// TestSweepUnknownKind: an unknown kind fails on its own, whether or not
// the config supplies values.
func TestSweepUnknownKind(t *testing.T) {
	for _, values := range [][]float64{nil, {0.5}} {
		_, err := Sweep(context.Background(), "bogus", DefaultSweepConfig(values))
		if err == nil || err.Error() != `unknown sweep kind "bogus"` {
			t.Errorf("values %v: err = %v, want unknown sweep kind", values, err)
		}
	}
}
