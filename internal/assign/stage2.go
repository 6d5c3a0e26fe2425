package assign

import (
	"fmt"
	"math"
	"sort"

	"thermaldc/internal/model"
	"thermaldc/internal/pwl"
)

// DisaggregateNodePower splits a node's total core-power budget into
// per-core targets along the concave ARR envelope. The LP's node-level
// optimum lies on one envelope segment [b_l, b_{l+1}]; the same aggregate
// reward is realized per-core by putting m cores at b_{l+1}, one core at
// the residual power, and the rest at b_l — mirroring the paper's 2-core
// example where (P-state 1, P-state 3) beats an equal split once P-states
// are integers.
//
// A non-positive nCores or a non-finite total is a model invariant
// violation and returns an error (historically a panic; the controller's
// solve pipeline must degrade, not die).
func DisaggregateNodePower(envelope *pwl.Func, nCores int, total float64) ([]float64, error) {
	if nCores <= 0 {
		return nil, fmt.Errorf("assign: nCores must be positive, got %d", nCores)
	}
	out := make([]float64, nCores)
	if err := disaggregateInto(envelope, total, out); err != nil {
		return nil, err
	}
	return out, nil
}

// disaggregateInto is DisaggregateNodePower for len(out) cores, writing
// every core's target into out.
func disaggregateInto(envelope *pwl.Func, total float64, out []float64) error {
	nCores := len(out)
	if nCores == 0 {
		return fmt.Errorf("assign: nCores must be positive, got %d", nCores)
	}
	if math.IsNaN(total) || math.IsInf(total, 0) {
		return fmt.Errorf("assign: node core-power budget is non-finite: %g", total)
	}
	if total <= 0 {
		clear(out)
		return nil
	}
	perCore := total / float64(nCores)
	xs := envelope.X
	// Clamp to the envelope domain.
	if perCore >= xs[len(xs)-1] {
		for i := range out {
			out[i] = xs[len(xs)-1]
		}
		return nil
	}
	// Locate the segment [b_l, b_{l+1}] containing perCore.
	l := sort.SearchFloat64s(xs, perCore)
	if l == 0 {
		l = 1
	}
	bl, bh := xs[l-1], xs[l]
	// m cores at bh, rest at bl, one residual core.
	theta := (perCore - bl) / (bh - bl)
	m := int(theta * float64(nCores))
	if m > nCores-1 {
		m = nCores - 1
	}
	for i := 0; i < m; i++ {
		out[i] = bh
	}
	for i := m + 1; i < nCores; i++ {
		out[i] = bl
	}
	residual := total - float64(m)*bh - float64(nCores-1-m)*bl
	if residual < bl {
		residual = bl
	}
	if residual > bh {
		residual = bh
	}
	out[m] = residual
	return nil
}

// Stage2Node converts per-core power targets into integer P-states for one
// node, following the paper's Stage-2 procedure:
//
//  1. Each core gets the highest (slowest) P-state whose power is ≥ its
//     target — i.e. the cheapest P-state that still delivers the assigned
//     power.
//  2. While the node's power (Equation 1) exceeds the Stage-1 node budget,
//     increment the P-state of the core currently in the smallest
//     (fastest) P-state.
//
// The returned slice maps each core to a P-state index (OffState = off).
// A target count that does not match the node's core count is a model
// invariant violation and returns an error rather than panicking.
func Stage2Node(nt *model.NodeType, targets []float64, nodeBudget float64) ([]int, error) {
	if len(targets) != nt.NumCores {
		return nil, fmt.Errorf("assign: node has %d cores, got %d targets", nt.NumCores, len(targets))
	}
	ps := make([]int, nt.NumCores)
	stage2NodeInto(nt, nt.CorePowers(), targets, nodeBudget, ps)
	return ps, nil
}

// stage2NodeInto is Stage2Node writing each core's P-state into ps, with
// powers = nt.CorePowers() (decreasing, last = 0 for off) taken by the
// caller.
func stage2NodeInto(nt *model.NodeType, powers, targets []float64, nodeBudget float64, ps []int) {
	off := nt.OffState()
	for c, target := range targets {
		// Highest P-state (largest index, lowest power) with power ≥ target.
		k := off
		for cand := off; cand >= 0; cand-- {
			if powers[cand] >= target-1e-12 {
				k = cand
				break
			}
		}
		ps[c] = k
	}
	// Step 2: reduce power until within budget.
	nodePower := func() float64 {
		total := nt.BasePower
		for _, k := range ps {
			total += powers[k]
		}
		return total
	}
	for nodePower() > nodeBudget+1e-9 {
		// Find the core with the smallest P-state (highest power).
		best := -1
		for c, k := range ps {
			if k >= off {
				continue
			}
			if best < 0 || k < ps[best] {
				best = c
			}
		}
		if best < 0 {
			break // everything off; base power alone exceeds the budget
		}
		ps[best]++
	}
}

// Stage2 converts the Stage-1 node power assignment into per-core integer
// P-states for the whole data center, returning a flat slice indexed by
// global core index. Each node type's core powers are read once, and every
// node disaggregates into one reused targets scratch and writes its
// P-states straight into the result, so a call allocates per node type,
// not per node.
func Stage2(dc *model.DataCenter, arrs []*pwl.Func, s1 *Stage1Result) ([]int, error) {
	out := make([]int, dc.NumCores())
	powers := make([][]float64, len(dc.NodeTypes))
	maxCores := 0
	for typ := range dc.NodeTypes {
		powers[typ] = dc.NodeTypes[typ].CorePowers()
		maxCores = max(maxCores, dc.NodeTypes[typ].NumCores)
	}
	targets := make([]float64, maxCores)
	lo := 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		typ := dc.Nodes[j].Type
		t := targets[:nt.NumCores]
		if err := disaggregateInto(arrs[typ], s1.NodeCorePower[j], t); err != nil {
			return nil, fmt.Errorf("node %d: %w", j, err)
		}
		stage2NodeInto(nt, powers[typ], t, s1.NodePower[j], out[lo:lo+nt.NumCores])
		lo += nt.NumCores
	}
	return out, nil
}

// NodePowersFromPStates computes each node's power (Equation 1) for a flat
// per-core P-state assignment.
func NodePowersFromPStates(dc *model.DataCenter, pstates []int) []float64 {
	corePowers := make([][]float64, len(dc.NodeTypes))
	for typ := range dc.NodeTypes {
		corePowers[typ] = dc.NodeTypes[typ].CorePowers()
	}
	out := make([]float64, dc.NCN())
	lo, hi := 0, 0
	for j := range dc.Nodes {
		nt := dc.NodeType(j)
		powers := corePowers[dc.Nodes[j].Type]
		lo, hi = hi, hi+nt.NumCores
		total := nt.BasePower
		for k := lo; k < hi; k++ {
			total += powers[pstates[k]]
		}
		out[j] = total
	}
	return out
}
