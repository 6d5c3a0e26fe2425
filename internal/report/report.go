// Package report serializes experiment results to CSV and JSON so the
// figures can be re-plotted outside this repository. CSV schemas keep one
// row per trial (Figure 6) or per sweep point, with summary statistics in
// trailing columns.
package report

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"thermaldc/internal/experiments"
)

// WriteJSON writes v as indented JSON.
func WriteJSON(w io.Writer, v any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(v)
}

func f(v float64) string { return strconv.FormatFloat(v, 'g', 10, 64) }

// Fig6CSV writes one row per (group, trial) with the baseline reward, the
// per-ψ rewards and improvements, and the best-of improvement.
func Fig6CSV(w io.Writer, res *experiments.Fig6Result) error {
	cw := csv.NewWriter(w)
	header := []string{"static_share", "vprop", "seed", "baseline_reward"}
	for _, psi := range res.Config.Psis {
		header = append(header,
			fmt.Sprintf("reward_psi%g", psi),
			fmt.Sprintf("improvement_pct_psi%g", psi))
	}
	header = append(header, "best_improvement_pct")
	withSim := res.Config.SimHorizon > 0
	if withSim {
		header = append(header, "realized_baseline", "realized_threestage",
			"realized_improvement_pct", "admitted_improvement_pct")
	}
	if err := cw.Write(header); err != nil {
		return err
	}
	for _, g := range res.Groups {
		for _, tr := range g.Trials {
			row := []string{
				f(g.Group.StaticShare), f(g.Group.Vprop),
				strconv.FormatInt(tr.Seed, 10), f(tr.BaselineReward),
			}
			for p := range res.Config.Psis {
				row = append(row, f(tr.RewardByPsi[p]), f(tr.ImprovementByPsi[p]))
			}
			row = append(row, f(tr.BestImprovement))
			if withSim {
				row = append(row, f(tr.RealizedBaseline), f(tr.RealizedThreeStage),
					f(tr.RealizedImprovement), f(tr.AdmittedImprovement))
			}
			if err := cw.Write(row); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// SweepCSV writes one row per sweep point with mean ± CI for both
// techniques and the improvement.
func SweepCSV(w io.Writer, res *experiments.SweepResult) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"x", "baseline_mean", "baseline_ci95", "threestage_mean",
		"threestage_ci95", "improvement_pct_mean", "improvement_pct_ci95",
	}); err != nil {
		return err
	}
	for _, p := range res.Points {
		if err := cw.Write([]string{
			f(p.X),
			f(p.Baseline.Mean), f(p.Baseline.HalfCI95),
			f(p.ThreeStage.Mean), f(p.ThreeStage.HalfCI95),
			f(p.Improvement.Mean), f(p.Improvement.HalfCI95),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// Fig345CSV writes the worked-example function samples, one series per
// block of rows.
func Fig345CSV(w io.Writer, series []experiments.Fig345Series) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"series", "power_w", "reward_rate"}); err != nil {
		return err
	}
	for _, s := range series {
		lo, hi := s.Func.Domain()
		const samples = 64
		for i := 0; i <= samples; i++ {
			x := lo + (hi-lo)*float64(i)/samples
			if err := cw.Write([]string{s.Name, f(x), f(s.Func.Eval(x))}); err != nil {
				return err
			}
		}
	}
	cw.Flush()
	return cw.Error()
}
