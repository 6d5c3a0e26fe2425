// Quickstart: build one Section-VI scenario, run the paper's three-stage
// assignment and the Equation-21 baseline, and compare their steady-state
// reward rates.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"thermaldc"
)

func main() {
	// A reduced instance (2 CRACs, 30 nodes) of the paper's setup with
	// static power share 30% and Vprop 0.3; seed fixes every random draw.
	cfg := thermaldc.DefaultScenario(0.3, 0.3, 42)
	cfg.NCracs = 2
	cfg.NNodes = 30
	sc, err := thermaldc.NewScenario(cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Data center: %d nodes / %d cores, %d CRACs, %d task types\n",
		sc.DC.NCN(), sc.DC.NumCores(), sc.DC.NCRAC(), sc.DC.T())
	fmt.Printf("Power envelope: Pmin %.1f kW, Pmax %.1f kW, Pconst %.1f kW (oversubscribed)\n\n",
		sc.Pmin, sc.Pmax, sc.DC.Pconst)

	opts := thermaldc.DefaultAssignOptions()

	baseline, err := thermaldc.Baseline(sc, opts)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Equation-21 baseline (P-state 0 or off):\n")
	fmt.Printf("  reward rate %.1f at outlets %v, power %.1f/%.1f kW\n\n",
		baseline.RewardRate, baseline.CracOut, baseline.TotalPower, sc.DC.Pconst)

	best := 0.0
	for _, psi := range []float64{25, 50} {
		opts.Psi = psi
		res, err := thermaldc.ThreeStage(sc, opts)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("Three-stage assignment, ψ=%g:\n", psi)
		fmt.Printf("  reward rate %.1f at outlets %v, power %.1f kW, %d Stage-1 LP solves\n",
			res.RewardRate(), res.Stage1.CracOut, res.Stage1.TotalPower, res.SearchSolved)
		onCores := 0
		for _, ps := range res.PStates {
			if ps < 4 { // both Table-I types have 4 real P-states
				onCores++
			}
		}
		fmt.Printf("  %d/%d cores powered on\n", onCores, sc.DC.NumCores())
		if res.RewardRate() > best {
			best = res.RewardRate()
		}
	}
	fmt.Printf("\nImprovement of best three-stage over baseline: %+.2f%%\n",
		100*(best-baseline.RewardRate)/baseline.RewardRate)
}
