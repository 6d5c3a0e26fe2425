// Package model defines the data-center model of Section III: node types
// with P-states, compute nodes, CRAC units, the workload's task types, the
// estimated-computational-speed (ECS) tensor, and the assembled DataCenter
// with its thermal cross-interference matrix and global constraints.
//
// Index conventions (matching the paper and Appendix B):
//   - Thermal vectors list CRAC units first, then compute nodes: thermal
//     index t ∈ [0, NCRAC) is CRAC t, t ∈ [NCRAC, NCRAC+NCN) is node
//     t−NCRAC.
//   - P-states are 0 (fastest) … η−1 (slowest real P-state), with the
//     turned-off state appended as P-state η (power 0, ECS 0).
//   - Cores carry a global index: node 0's cores first, then node 1's, etc.
package model

import (
	"fmt"

	"thermaldc/internal/power"
)

// NodeType describes one homogeneous server model (paper Table I plus the
// Appendix-A core model).
type NodeType struct {
	// Name identifies the type in output ("HP ProLiant DL785 G5", ...).
	Name string
	// BasePower is the node's non-compute power in kW (disks, fans, ...),
	// consumed regardless of core activity because nodes are never turned
	// off in an oversubscribed data center.
	BasePower float64
	// NumCores is the number of identical cores per node.
	NumCores int
	// Core is the Appendix-A power model for each core.
	Core power.CoreModel
	// AirFlow is the node's air flow rate in m³/s.
	AirFlow float64
}

// NumPStates returns the number of real P-states η (excluding off).
func (nt *NodeType) NumPStates() int { return len(nt.Core.FreqMHz) }

// OffState returns the index of the appended turned-off P-state (= η).
func (nt *NodeType) OffState() int { return nt.NumPStates() }

// CorePowers returns per-P-state core power in kW including the final
// turned-off entry (0).
func (nt *NodeType) CorePowers() []float64 { return nt.Core.PStatePowers() }

// MaxPower returns the node's power in kW with every core at P-state 0.
func (nt *NodeType) MaxPower() float64 {
	return nt.BasePower + float64(nt.NumCores)*nt.Core.PStatePower(0)
}

// MinPower returns the node's power in kW with every core turned off.
func (nt *NodeType) MinPower() float64 { return nt.BasePower }

// Validate checks the node type.
func (nt *NodeType) Validate() error {
	if nt.NumCores <= 0 {
		return fmt.Errorf("model: node type %q has %d cores", nt.Name, nt.NumCores)
	}
	if nt.BasePower < 0 {
		return fmt.Errorf("model: node type %q has negative base power", nt.Name)
	}
	if nt.AirFlow <= 0 {
		return fmt.Errorf("model: node type %q has non-positive air flow", nt.Name)
	}
	if err := nt.Core.Validate(); err != nil {
		return fmt.Errorf("model: node type %q: %w", nt.Name, err)
	}
	return nil
}

// NodeLabel is the rack-position label of Table II / [29], which determines
// the node's exit- and recirculation-coefficient ranges. Label A is at the
// bottom of a rack, E at the top.
type NodeLabel int

// Rack-position labels in bottom-to-top order.
const (
	LabelA NodeLabel = iota
	LabelB
	LabelC
	LabelD
	LabelE
	numLabels
)

// String returns "A".."E".
func (l NodeLabel) String() string {
	if l < 0 || l >= numLabels {
		return fmt.Sprintf("NodeLabel(%d)", int(l))
	}
	return string(rune('A' + int(l)))
}

// Node is one compute node instance.
type Node struct {
	// Type indexes DataCenter.NodeTypes.
	Type int
	// Rack and Slot locate the node physically; Slot 0 is the bottom.
	Rack, Slot int
	// Label is the Table-II rack-position label derived from Slot.
	Label NodeLabel
	// HotAisle is the index of the hot aisle this node exhausts into,
	// which biases its exit coefficients toward the facing CRAC (Fig. 1).
	HotAisle int
}

// CRAC is one computer-room air conditioning unit.
type CRAC struct {
	// Flow is the unit's air flow rate in m³/s.
	Flow float64
}

// TaskType describes one of the workload's T task types (Section III.B).
type TaskType struct {
	// Name identifies the type in output.
	Name string
	// Reward r_i is collected when a task completes by its deadline.
	Reward float64
	// RelDeadline m_i: a task arriving at t must finish by t + m_i.
	RelDeadline float64
	// ArrivalRate λ_i in tasks per second.
	ArrivalRate float64
	// PowerFactor optionally scales a core's P-state power while executing
	// this type (the paper's §III.C task-type extension: I/O-intensive
	// types draw less). 0 means unset and is treated as 1.
	PowerFactor float64 `json:",omitempty"`
}

// ECS is the estimated-computational-speed tensor: ECS[i][j][k] is the
// number of tasks of type i completed per second on a core of node type j
// in P-state k. The last k index is the turned-off state and must be 0.
type ECS [][][]float64

// At returns ECS(i, j, k).
func (e ECS) At(task, nodeType, pstate int) float64 { return e[task][nodeType][pstate] }

// DataCenter assembles the full model.
type DataCenter struct {
	NodeTypes []NodeType
	Nodes     []Node
	CRACs     []CRAC
	TaskTypes []TaskType
	ECS       ECS

	// Alpha is the (NCRAC+NCN)² cross-interference matrix of Appendix B:
	// Alpha[i][j] is the fraction of unit i's outlet air flow that enters
	// unit j's inlet, in thermal-index order.
	Alpha [][]float64

	// RedlineNode and RedlineCRAC are the inlet redline temperatures in °C
	// (paper: 25 °C for nodes, 40 °C for CRACs).
	RedlineNode float64
	RedlineCRAC float64

	// Pconst is the total power constraint in kW (Equation 18).
	Pconst float64
}

// NCRAC returns the number of CRAC units.
func (dc *DataCenter) NCRAC() int { return len(dc.CRACs) }

// NCN returns the number of compute nodes.
func (dc *DataCenter) NCN() int { return len(dc.Nodes) }

// T returns the number of task types.
func (dc *DataCenter) T() int { return len(dc.TaskTypes) }

// NumThermal returns the size of thermal vectors (NCRAC + NCN).
func (dc *DataCenter) NumThermal() int { return dc.NCRAC() + dc.NCN() }

// NodeThermalIndex maps node j to its thermal-vector index.
func (dc *DataCenter) NodeThermalIndex(j int) int { return dc.NCRAC() + j }

// NodeType returns the type descriptor of node j.
func (dc *DataCenter) NodeType(j int) *NodeType { return &dc.NodeTypes[dc.Nodes[j].Type] }

// NumCores returns the total number of cores NCORES.
func (dc *DataCenter) NumCores() int {
	n := 0
	for j := range dc.Nodes {
		n += dc.NodeType(j).NumCores
	}
	return n
}

// CoreRange returns the [lo, hi) global core index range of node j. It
// sums the core counts of nodes 0..j−1, so it is O(j) and meant for single
// lookups: a loop over every node advances lo += NumCores instead.
func (dc *DataCenter) CoreRange(j int) (lo, hi int) {
	for i := 0; i < j; i++ {
		lo += dc.NodeType(i).NumCores
	}
	return lo, lo + dc.NodeType(j).NumCores
}

// CoreNode returns the node owning global core k. It walks the nodes in
// order, so it is O(j) in the owning node j and meant for single lookups:
// a loop over every core tracks its node alongside instead.
func (dc *DataCenter) CoreNode(k int) int {
	for j := range dc.Nodes {
		n := dc.NodeType(j).NumCores
		if k < n {
			return j
		}
		k -= n
	}
	panic(fmt.Sprintf("model: core index %d out of range", k))
}

// Redline returns the redline vector in thermal-index order (Equation 6).
func (dc *DataCenter) Redline() []float64 {
	out := make([]float64, dc.NumThermal())
	for i := 0; i < dc.NCRAC(); i++ {
		out[i] = dc.RedlineCRAC
	}
	for j := 0; j < dc.NCN(); j++ {
		out[dc.NCRAC()+j] = dc.RedlineNode
	}
	return out
}

// Flows returns the air-flow vector F in thermal-index order.
func (dc *DataCenter) Flows() []float64 {
	out := make([]float64, dc.NumThermal())
	for i, c := range dc.CRACs {
		out[i] = c.Flow
	}
	for j := range dc.Nodes {
		out[dc.NCRAC()+j] = dc.NodeType(j).AirFlow
	}
	return out
}

// NodePower returns node j's power in kW given per-core P-state
// assignments for its cores (Equation 1). pstates must have exactly the
// node's core count.
func (dc *DataCenter) NodePower(j int, pstates []int) float64 {
	nt := dc.NodeType(j)
	if len(pstates) != nt.NumCores {
		panic(fmt.Sprintf("model: node %d has %d cores, got %d P-states", j, nt.NumCores, len(pstates)))
	}
	powers := nt.CorePowers()
	total := nt.BasePower
	for _, k := range pstates {
		total += powers[k]
	}
	return total
}

// Validate checks the assembled data center for structural consistency.
func (dc *DataCenter) Validate() error {
	if len(dc.NodeTypes) == 0 {
		return fmt.Errorf("model: no node types")
	}
	for i := range dc.NodeTypes {
		if err := dc.NodeTypes[i].Validate(); err != nil {
			return err
		}
	}
	if len(dc.Nodes) == 0 {
		return fmt.Errorf("model: no nodes")
	}
	for j, n := range dc.Nodes {
		if n.Type < 0 || n.Type >= len(dc.NodeTypes) {
			return fmt.Errorf("model: node %d references unknown type %d", j, n.Type)
		}
		if n.Label < 0 || n.Label >= numLabels {
			return fmt.Errorf("model: node %d has invalid label %d", j, n.Label)
		}
		if n.HotAisle < 0 || n.HotAisle >= len(dc.CRACs) {
			return fmt.Errorf("model: node %d exhausts into unknown hot aisle %d", j, n.HotAisle)
		}
	}
	if len(dc.CRACs) == 0 {
		return fmt.Errorf("model: no CRAC units")
	}
	for i, c := range dc.CRACs {
		if c.Flow <= 0 {
			return fmt.Errorf("model: CRAC %d has non-positive flow", i)
		}
	}
	if len(dc.TaskTypes) == 0 {
		return fmt.Errorf("model: no task types")
	}
	for i, tt := range dc.TaskTypes {
		if tt.Reward < 0 || tt.RelDeadline <= 0 || tt.ArrivalRate < 0 {
			return fmt.Errorf("model: task type %d (%s) has invalid parameters %+v", i, tt.Name, tt)
		}
		if tt.PowerFactor < 0 || tt.PowerFactor > 1.5 {
			return fmt.Errorf("model: task type %d (%s) has power factor %g outside [0, 1.5]", i, tt.Name, tt.PowerFactor)
		}
	}
	if err := dc.validateECS(); err != nil {
		return err
	}
	if err := dc.validateAlpha(); err != nil {
		return err
	}
	if dc.RedlineNode <= 0 || dc.RedlineCRAC <= 0 {
		return fmt.Errorf("model: redline temperatures must be positive")
	}
	if dc.Pconst < 0 {
		return fmt.Errorf("model: negative power constraint")
	}
	return nil
}

func (dc *DataCenter) validateECS() error {
	if len(dc.ECS) != dc.T() {
		return fmt.Errorf("model: ECS has %d task rows, want %d", len(dc.ECS), dc.T())
	}
	for i := range dc.ECS {
		if len(dc.ECS[i]) != len(dc.NodeTypes) {
			return fmt.Errorf("model: ECS[%d] has %d node types, want %d", i, len(dc.ECS[i]), len(dc.NodeTypes))
		}
		for j := range dc.ECS[i] {
			want := dc.NodeTypes[j].NumPStates() + 1
			if len(dc.ECS[i][j]) != want {
				return fmt.Errorf("model: ECS[%d][%d] has %d P-states, want %d (incl. off)", i, j, len(dc.ECS[i][j]), want)
			}
			for k, v := range dc.ECS[i][j] {
				if v < 0 {
					return fmt.Errorf("model: ECS[%d][%d][%d] negative", i, j, k)
				}
			}
			if off := dc.ECS[i][j][want-1]; off != 0 {
				return fmt.Errorf("model: ECS[%d][%d] turned-off state has ECS %g, want 0", i, j, off)
			}
		}
	}
	return nil
}

func (dc *DataCenter) validateAlpha() error {
	n := dc.NumThermal()
	if len(dc.Alpha) != n {
		return fmt.Errorf("model: Alpha has %d rows, want %d", len(dc.Alpha), n)
	}
	for i := range dc.Alpha {
		if len(dc.Alpha[i]) != n {
			return fmt.Errorf("model: Alpha row %d has %d cols, want %d", i, len(dc.Alpha[i]), n)
		}
		sum := 0.0
		for j, v := range dc.Alpha[i] {
			if v < -1e-9 || v > 1+1e-9 {
				return fmt.Errorf("model: Alpha[%d][%d] = %g outside [0,1]", i, j, v)
			}
			sum += v
		}
		if sum < 1-1e-6 || sum > 1+1e-6 {
			return fmt.Errorf("model: Alpha row %d sums to %g, want 1 (Appendix-B constraint 1)", i, sum)
		}
	}
	return nil
}
