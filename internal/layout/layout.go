// Package layout arranges compute nodes into the paper's
// hot-aisle/cold-aisle floor plan (Figure 1) and generates the thermal
// cross-interference matrix α via the Appendix-B LP feasibility problem.
//
// Nodes are stacked into racks of (by default) five, labelled A (bottom)
// through E (top) with the Table-II exit-coefficient (EC) and
// recirculation-coefficient (RC) ranges from the CFD study of Tang et
// al. [29]. Racks are assigned round-robin to hot aisles; each hot aisle
// faces one CRAC unit, which receives the larger share of the exit air of
// the nodes exhausting into it (the M matrix of Appendix B).
package layout

import (
	"context"
	"fmt"
	"math/rand"

	"thermaldc/internal/linprog"
	"thermaldc/internal/model"
)

// ECRange and RCRange are the Table-II coefficient ranges per node label
// (A..E), as fractions.
var (
	ECRange = [5][2]float64{
		{0.30, 0.40}, // A
		{0.30, 0.40}, // B
		{0.40, 0.50}, // C
		{0.70, 0.80}, // D
		{0.80, 0.90}, // E
	}
	RCRange = [5][2]float64{
		{0.00, 0.10}, // A
		{0.00, 0.20}, // B
		{0.10, 0.30}, // C
		{0.30, 0.70}, // D
		{0.40, 0.80}, // E
	}
)

// Config controls the floor plan and the α generator.
type Config struct {
	// NodesPerRack is the rack height; labels beyond E repeat E. The
	// paper/[29] use 5.
	NodesPerRack int
	// FacingShare is M(i,i): the fraction of a node's exit air that goes
	// to the CRAC facing its hot aisle; the remainder is split evenly
	// among the other CRACs. Must be in (0, 1].
	FacingShare float64
	// NeighborRacks is the node→node recirculation support radius in
	// racks (within the same hot aisle); 1 means own rack ± one rack.
	NeighborRacks int
	// MaxRelaxations caps how many times the generator widens the
	// Table-II ranges when the strict problem is infeasible (small or
	// partial-rack layouts). 0 disables relaxation.
	MaxRelaxations int
}

// DefaultConfig returns the paper's layout parameters.
func DefaultConfig() Config {
	return Config{NodesPerRack: 5, FacingShare: 0.7, NeighborRacks: 1, MaxRelaxations: 3}
}

func (c *Config) withDefaults() Config {
	out := *c
	if out.NodesPerRack == 0 {
		out.NodesPerRack = 5
	}
	if out.FacingShare == 0 {
		out.FacingShare = 0.7
	}
	if out.NeighborRacks == 0 {
		out.NeighborRacks = 1
	}
	return out
}

// Arrange assigns rack positions, labels and hot aisles to dc.Nodes and
// sizes the CRAC flows so their sum equals the total node air flow
// (Section VI.G). Node types must already be assigned.
func Arrange(dc *model.DataCenter, cfg Config) error {
	cfg = cfg.withDefaults()
	if cfg.NodesPerRack <= 0 {
		return fmt.Errorf("layout: NodesPerRack must be positive")
	}
	if len(dc.CRACs) == 0 {
		return fmt.Errorf("layout: data center has no CRAC units")
	}
	ncrac := len(dc.CRACs)
	for j := range dc.Nodes {
		rack := j / cfg.NodesPerRack
		slot := j % cfg.NodesPerRack
		label := slot
		if label >= int(model.LabelE) {
			label = int(model.LabelE)
		}
		dc.Nodes[j].Rack = rack
		dc.Nodes[j].Slot = slot
		dc.Nodes[j].Label = model.NodeLabel(label)
		dc.Nodes[j].HotAisle = rack % ncrac
	}
	total := 0.0
	for j := range dc.Nodes {
		total += dc.NodeType(j).AirFlow
	}
	per := total / float64(ncrac)
	for i := range dc.CRACs {
		dc.CRACs[i].Flow = per
	}
	return nil
}

// MMatrix returns M(aisle, crac): the share of a hot aisle's exit air
// going to each CRAC. The facing CRAC (same index) receives facingShare;
// the remainder is split evenly. Each row sums to 1.
func MMatrix(ncrac int, facingShare float64) [][]float64 {
	m := make([][]float64, ncrac)
	for i := range m {
		m[i] = make([]float64, ncrac)
		if ncrac == 1 {
			m[i][0] = 1
			continue
		}
		rest := (1 - facingShare) / float64(ncrac-1)
		for j := range m[i] {
			if i == j {
				m[i][j] = facingShare
			} else {
				m[i][j] = rest
			}
		}
	}
	return m
}

// labelRanges returns the EC and RC ranges for a node, optionally widened
// by the relaxation factor w ∈ [0, 1): lower bounds shrink toward 0 and
// upper bounds grow toward 1 by w of the remaining distance.
func labelRanges(l model.NodeLabel, w float64) (ecLo, ecHi, rcLo, rcHi float64) {
	ec, rc := ECRange[l], RCRange[l]
	ecLo = ec[0] * (1 - w)
	ecHi = ec[1] + (1-ec[1])*w
	rcLo = rc[0] * (1 - w)
	rcHi = rc[1] + (1-rc[1])*w
	return
}

// GenerateAlpha solves the Appendix-B LP feasibility problem and stores
// the resulting cross-interference matrix in dc.Alpha. A random objective
// drawn from rng diversifies the chosen vertex across trials, mirroring
// the variability of CFD-derived coefficients. When the strict Table-II
// ranges are infeasible (e.g. partial racks), the ranges are progressively
// widened up to cfg.MaxRelaxations times.
func GenerateAlpha(dc *model.DataCenter, cfg Config, rng *rand.Rand) error {
	return generateAlpha(dc, cfg, rng, &linprog.Workspace{})
}

// generateAlpha is GenerateAlpha solving through ws, whose Stats count the
// pivots of every attempt.
func generateAlpha(dc *model.DataCenter, cfg Config, rng *rand.Rand, ws *linprog.Workspace) error {
	cfg = cfg.withDefaults()
	var lastErr error
	for attempt := 0; attempt <= cfg.MaxRelaxations; attempt++ {
		w := 0.0
		if attempt > 0 {
			w = float64(attempt) / float64(cfg.MaxRelaxations+1)
		}
		alpha, err := solveAlphaLP(dc, cfg, rng, w, ws)
		if err == nil {
			dc.Alpha = alpha
			return nil
		}
		lastErr = err
	}
	return fmt.Errorf("layout: Appendix-B feasibility failed even after %d relaxations: %w",
		cfg.MaxRelaxations, lastErr)
}

// solveAlphaLP builds and solves one instance of the Appendix-B LP.
func solveAlphaLP(dc *model.DataCenter, cfg Config, rng *rand.Rand, widen float64, ws *linprog.Workspace) ([][]float64, error) {
	ncrac := dc.NCRAC()
	ncn := dc.NCN()
	n := ncrac + ncn
	flows := dc.Flows()
	m := MMatrix(ncrac, cfg.FacingShare)

	p := linprog.NewProblem(linprog.Minimize)

	// Variable registry: var id per (source, dest) thermal-index pair on
	// the sparse support.
	type arc struct{ src, dst int }
	varOf := make(map[arc]int)
	addVar := func(src, dst int, lo, hi float64) {
		if hi < lo {
			hi = lo
		}
		id := p.AddVar(fmt.Sprintf("a_%d_%d", src, dst), lo, hi, rng.Float64())
		varOf[arc{src, dst}] = id
	}

	// node → CRAC arcs with the Appendix-B constraint-3/4 bounds:
	// MinEC_L·M(HA, c) ≤ α ≤ MaxEC_L·M(HA, c).
	for j, node := range dc.Nodes {
		ecLo, ecHi, _, _ := labelRanges(node.Label, widen)
		src := ncrac + j
		for c := 0; c < ncrac; c++ {
			addVar(src, c, ecLo*m[node.HotAisle][c], ecHi*m[node.HotAisle][c])
		}
	}
	// node → node arcs on the neighbourhood support.
	for i, src := range dc.Nodes {
		for j, dst := range dc.Nodes {
			if i == j {
				continue
			}
			if src.HotAisle != dst.HotAisle {
				continue
			}
			dr := src.Rack - dst.Rack
			if dr < 0 {
				dr = -dr
			}
			// Racks in the same aisle are numbered ncrac apart.
			if dr > cfg.NeighborRacks*dc.NCRAC() {
				continue
			}
			addVar(ncrac+i, ncrac+j, 0, 1)
		}
	}
	// CRAC → node and CRAC → CRAC arcs (the cold-air plenum is shared).
	for c := 0; c < ncrac; c++ {
		for j := 0; j < ncn; j++ {
			addVar(c, ncrac+j, 0, 1)
		}
		for c2 := 0; c2 < ncrac; c2++ {
			addVar(c, c2, 0, 1)
		}
	}

	// Constraint 1: each source's fractions sum to 1.
	for src := 0; src < n; src++ {
		var terms []linprog.Term
		for dst := 0; dst < n; dst++ {
			if id, ok := varOf[arc{src, dst}]; ok {
				terms = append(terms, linprog.Term{Var: id, Coef: 1})
			}
		}
		if len(terms) == 0 {
			return nil, fmt.Errorf("layout: source %d has no outgoing arcs", src)
		}
		p.AddRow(linprog.EQ, 1, terms...)
	}
	// Constraint 2: each destination's inflow equals its flow rate.
	for dst := 0; dst < n; dst++ {
		var terms []linprog.Term
		for src := 0; src < n; src++ {
			if id, ok := varOf[arc{src, dst}]; ok {
				terms = append(terms, linprog.Term{Var: id, Coef: flows[src]})
			}
		}
		if len(terms) == 0 {
			return nil, fmt.Errorf("layout: destination %d has no incoming arcs", dst)
		}
		p.AddRow(linprog.EQ, flows[dst], terms...)
	}
	// Constraint 5 (flow-weighted, see package doc): recirculated node
	// inflow within the label's RC range. The paper sums raw fractions;
	// we weight by source flow to match the RC definition in [29].
	for j, node := range dc.Nodes {
		_, _, rcLo, rcHi := labelRanges(node.Label, widen)
		dst := ncrac + j
		var terms []linprog.Term
		for i := 0; i < ncn; i++ {
			if id, ok := varOf[arc{ncrac + i, dst}]; ok {
				terms = append(terms, linprog.Term{Var: id, Coef: flows[ncrac+i]})
			}
		}
		if len(terms) == 0 {
			if rcLo > 0 {
				return nil, fmt.Errorf("layout: node %d needs recirculation but has no node arcs", j)
			}
			continue
		}
		p.AddRangeRow(rcLo*flows[dst], rcHi*flows[dst], terms...)
	}

	sol, err := p.Solve(context.Background(), ws)
	if err != nil {
		return nil, err
	}
	alpha := make([][]float64, n)
	for i := range alpha {
		alpha[i] = make([]float64, n)
	}
	for a, id := range varOf {
		v := sol.Value(id)
		if v < 0 {
			v = 0
		}
		alpha[a.src][a.dst] = v
	}
	// Normalize rows exactly to 1 to absorb solver tolerance.
	for i := range alpha {
		sum := 0.0
		for _, v := range alpha[i] {
			sum += v
		}
		if sum > 0 {
			for j := range alpha[i] {
				alpha[i][j] /= sum
			}
		}
	}
	return alpha, nil
}
