package thermal

// Coupling reports the block structure of a cross-interference matrix:
// which thermal units exchange recirculated air with which, and how much
// heat flow a block-diagonal reading of the matrix would ignore. The zone
// decomposition (internal/zones) uses it to split a floor into thermally
// independent blocks that can be modeled and solved separately.
type Coupling struct {
	// Component maps each thermal unit (thermal-index order, CRACs first)
	// to a zero-based component id. Ids are assigned in order of each
	// component's smallest thermal index, so the labeling is deterministic.
	Component []int

	// NumComponents is the number of connected components.
	NumComponents int

	// MaxCross is the largest |α[i][j]| between units in different
	// components. It is ≤ the eps passed to Components, and exactly 0 when
	// eps is 0; it bounds the per-edge heat fraction the block-diagonal
	// approximation drops.
	MaxCross float64
}

// Components partitions the thermal units into connected components of the
// undirected support graph of the cross-interference matrix alpha: units i
// and j are joined when |α[i][j]| > eps or |α[j][i]| > eps. With eps = 0
// the partition is exact: the heat-flow fixed point of New, and therefore
// every affine map this package computes, decomposes block-by-block with
// bit-identical arithmetic — LU partial pivoting never selects a pivot
// across a structurally zero block, and the zero off-block entries
// contribute exactly 0.0 to every matrix product. A positive eps treats
// weak couplings as absent; callers accepting that approximation can bound
// its size with MaxCross.
func Components(alpha [][]float64, eps float64) Coupling {
	n := len(alpha)
	parent := make([]int, n)
	for i := range parent {
		parent[i] = i
	}
	var find func(int) int
	find = func(x int) int {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b int) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[rb] = ra
		}
	}
	// One row-major pass visits both α[i][j] and α[j][i] of every pair.
	for i, row := range alpha {
		for j, v := range row {
			if j != i && abs(v) > eps {
				union(i, j)
			}
		}
	}

	// Relabel roots in order of first appearance so component ids are a
	// deterministic function of the matrix alone.
	c := Coupling{Component: make([]int, n)}
	label := make(map[int]int, 8)
	for i := 0; i < n; i++ {
		r := find(i)
		id, ok := label[r]
		if !ok {
			id = len(label)
			label[r] = id
		}
		c.Component[i] = id
	}
	c.NumComponents = len(label)

	// With eps ≤ 0 every nonzero entry joined its units, so MaxCross is 0.
	if eps <= 0 {
		return c
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if c.Component[i] != c.Component[j] {
				if a := abs(alpha[i][j]); a > c.MaxCross {
					c.MaxCross = a
				}
			}
		}
	}
	return c
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
