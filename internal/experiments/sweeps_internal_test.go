package experiments

import (
	"context"
	"math"
	"testing"
	"time"

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
