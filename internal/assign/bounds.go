package assign

import (
	"context"
	"fmt"

	"thermaldc/internal/model"
	"thermaldc/internal/tempsearch"
	"thermaldc/internal/thermal"
)

// PowerBounds solves the paper's Equation-17 problems: the minimum total
// power (all cores off) and maximum total power (all cores at P-state 0)
// over the CRAC outlet temperatures, subject to the redline constraints.
// With node powers fixed at either extreme, total power is a closed-form
// function of the outlets, so the NLP reduces to the discretized search
// (the paper itself treats its NLP solutions as upper bounds on the true
// extrema for the same reason).
func PowerBounds(dc *model.DataCenter, tm *thermal.Model, search tempsearch.Config) (pmin, pmax float64, err error) {
	minPCN := make([]float64, dc.NCN())
	maxPCN := make([]float64, dc.NCN())
	for j := range minPCN {
		nt := dc.NodeType(j)
		minPCN[j] = nt.MinPower()
		maxPCN[j] = nt.MaxPower()
	}
	// The evaluators only read tm and their pcn vector, so one shared
	// evaluator serves all search workers.
	evalFor := func(pcn []float64) tempsearch.Factory {
		return tempsearch.Shared(func(cracOut []float64) (float64, bool) {
			tin := tm.InletTemps(cracOut, pcn)
			if tm.RedlineSlack(tin) < -powerTolerance {
				return 0, false
			}
			// Minimizing power = maximizing its negation.
			return -tm.TotalPower(cracOut, pcn), true
		})
	}
	minRes, err := tempsearch.CoarseToFine(context.Background(), dc.NCRAC(), search, evalFor(minPCN))
	if err != nil {
		return 0, 0, fmt.Errorf("assign: Pmin search: %w", err)
	}
	maxRes, err := tempsearch.CoarseToFine(context.Background(), dc.NCRAC(), search, evalFor(maxPCN))
	if err != nil {
		return 0, 0, fmt.Errorf("assign: Pmax search (the fully loaded data center cannot be cooled within the redlines): %w", err)
	}
	return -minRes.Value, -maxRes.Value, nil
}
