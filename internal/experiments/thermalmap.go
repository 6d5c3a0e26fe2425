package experiments

import (
	"fmt"
	"sort"
	"strings"

	"thermaldc/internal/assign"
	"thermaldc/internal/scenario"
)

// ThermalMapResult is a diagnostic snapshot of the data center after the
// three-stage assignment: per-node inlet temperatures, P-state histogram
// and the power ledger.
type ThermalMapResult struct {
	CracOut []float64
	// NodeInlet[j] and CRACInlet[i] are the inlet temperatures.
	NodeInlet []float64
	CRACInlet []float64
	// RedlineNode echoes the constraint for rendering.
	RedlineNode float64
	// PStateHistogram[nodeType][pstate] counts cores.
	PStateHistogram map[string][]int
	// ComputePower, CRACPower, Pconst in kW.
	ComputePower, CRACPower, Pconst float64
	// RewardRate and PowerShadowPrice summarize the assignment.
	RewardRate       float64
	PowerShadowPrice float64
	// racks[rack] lists (slot, inlet °C) for rendering.
	racks map[int][]rackSlot
}

type rackSlot struct {
	slot  int
	inlet float64
}

// ThermalMap runs the three-stage assignment on a freshly built scenario
// and captures the resulting thermal and power state.
func ThermalMap(scCfg scenario.Config, opts assign.Options) (*ThermalMapResult, error) {
	sc, err := scenario.Build(scCfg)
	if err != nil {
		return nil, err
	}
	res, err := assign.ThreeStage(sc.DC, sc.Thermal, opts)
	if err != nil {
		return nil, err
	}
	pcn := assign.NodePowersFromPStates(sc.DC, res.PStates)
	tin := sc.Thermal.InletTemps(res.Stage1.CracOut, pcn)

	out := &ThermalMapResult{
		CracOut:          res.Stage1.CracOut,
		NodeInlet:        tin[sc.DC.NCRAC():],
		CRACInlet:        tin[:sc.DC.NCRAC()],
		RedlineNode:      sc.DC.RedlineNode,
		PStateHistogram:  map[string][]int{},
		Pconst:           sc.DC.Pconst,
		RewardRate:       res.RewardRate(),
		PowerShadowPrice: res.Stage1.PowerShadowPrice,
		racks:            map[int][]rackSlot{},
	}
	for _, p := range pcn {
		out.ComputePower += p
	}
	for _, cp := range sc.Thermal.CRACPowers(res.Stage1.CracOut, pcn) {
		out.CRACPower += cp
	}
	lo, hi := 0, 0
	for j, node := range sc.DC.Nodes {
		nt := sc.DC.NodeType(j)
		hist, ok := out.PStateHistogram[nt.Name]
		if !ok {
			hist = make([]int, nt.NumPStates()+1)
		}
		lo, hi = hi, hi+nt.NumCores
		for k := lo; k < hi; k++ {
			hist[res.PStates[k]]++
		}
		out.PStateHistogram[nt.Name] = hist
		out.racks[node.Rack] = append(out.racks[node.Rack], rackSlot{node.Slot, out.NodeInlet[j]})
	}
	return out, nil
}

// shade maps an inlet temperature to a glyph relative to the redline.
func shade(inlet, redline float64) byte {
	frac := inlet / redline
	switch {
	case frac < 0.6:
		return '.'
	case frac < 0.75:
		return '-'
	case frac < 0.9:
		return '+'
	case frac < 0.99:
		return '#'
	default:
		return '!'
	}
}

// Render draws the rack-by-slot inlet-temperature map plus the P-state
// histogram and power ledger.
func (r *ThermalMapResult) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Thermal map after three-stage assignment\n")
	fmt.Fprintf(&b, "CRAC outlets %v °C, CRAC inlets ", r.CracOut)
	for i, t := range r.CRACInlet {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%.1f", t)
	}
	fmt.Fprintf(&b, " °C\n")
	fmt.Fprintf(&b, "power: compute %.1f + CRAC %.1f = %.1f / %.1f kW; reward %.1f/s; shadow price %.2f reward/kW\n\n",
		r.ComputePower, r.CRACPower, r.ComputePower+r.CRACPower, r.Pconst, r.RewardRate, r.PowerShadowPrice)

	fmt.Fprintf(&b, "node inlet temperature by rack (redline %.0f °C): . <60%%  - <75%%  + <90%%  # <99%%  ! at redline\n\n", r.RedlineNode)
	var rackIDs []int
	maxSlot := 0
	for rk, slots := range r.racks {
		rackIDs = append(rackIDs, rk)
		for _, s := range slots {
			if s.slot > maxSlot {
				maxSlot = s.slot
			}
		}
	}
	sort.Ints(rackIDs)
	for slot := maxSlot; slot >= 0; slot-- {
		fmt.Fprintf(&b, "slot %d  ", slot)
		for _, rk := range rackIDs {
			glyph := byte(' ')
			for _, s := range r.racks[rk] {
				if s.slot == slot {
					glyph = shade(s.inlet, r.RedlineNode)
				}
			}
			b.WriteByte(glyph)
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "        %s\n\n", strings.Repeat("^", len(rackIDs)))

	fmt.Fprintf(&b, "P-state histogram (cores):\n")
	var names []string
	for name := range r.PStateHistogram {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		hist := r.PStateHistogram[name]
		fmt.Fprintf(&b, "  %-26s", name)
		for k, c := range hist {
			label := fmt.Sprintf("P%d", k)
			if k == len(hist)-1 {
				label = "off"
			}
			fmt.Fprintf(&b, " %s:%-5d", label, c)
		}
		b.WriteByte('\n')
	}
	return b.String()
}
