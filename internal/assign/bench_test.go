package assign_test

import (
	"testing"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
)

// BenchmarkBaselineCandidatePaperScale times one paper-scale Equation-21
// candidate (all outlets at 15 °C) solved on a search worker's warm LP
// skeleton, the unit of work of the baseline's outlet search, and reports
// its pivots per op next to ns/op.
func BenchmarkBaselineCandidatePaperScale(b *testing.B) {
	sc, err := scenario.Build(scenario.Default(0.3, 0.1, 1))
	if err != nil {
		b.Fatal(err)
	}
	out := make([]float64, sc.DC.NCRAC())
	for i := range out {
		out[i] = 15
	}
	solve, stats := assign.BaselineWorkerStats(sc.DC, sc.Thermal)
	if _, err := solve(out); err != nil { // sizes the worker's workspace
		b.Fatal(err)
	}
	pivots0 := stats.Pivots
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solve(out); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(stats.Pivots-pivots0)/float64(b.N), "pivots/op")
}
