package sched

import (
	"math"
)

// dispatchIndex answers PaperPolicy's choice without building the
// candidate list. It is derived state: groups come from the plan, tree
// contents from freeAt and the ATC counts, and all of it can be rebuilt
// at any time, so checkpoints carry none of it.
//
// Cores of one plan group share their execution time and TC for every
// task type. Inside a group, for a fixed task type, the ratio
// float64(count)/elapsed/tc is strictly increasing in count (see exact)
// and the completion max(now, freeAt)+exec is non-decreasing in freeAt. So
// the group's best core under PaperPolicy is the lexicographic minimum of
// (count, completion, core) over its deadline-feasible cores, and the
// overall choice is the minimum of (ratio, completion, core) over the
// group winners with ratio ≤ 1: exactly what Pick selects from the scan's
// candidates, which arrive in ascending core order.
//
// Each group has one tree shared by all task types holding the subtree
// minimum of freeAt, and one tree per (task type, group) holding the
// subtree minimum count. A tree over n cores takes 2n−1 nodes in
// pre-order: node idx covering cores [lo, hi) of the group has its left
// child at idx+1 and its right child at idx+2(mid−lo), mid = lo+(hi−lo)/2,
// so a depth-first walk visits the group's cores in ascending order.
type dispatchIndex struct {
	// members lists every group's cores, group g in
	// members[start[g]:start[g+1]], ascending.
	members []int32
	start   []int32
	// group[k] is core k's plan group (-1 for a core in none) and pos[k]
	// its leaf position inside the group.
	group, pos []int32
	// byType[i] lists the groups task type i can be dispatched to: finite
	// execution time and TC > 0.
	byType [][]groupRef
	// maxTC is the largest TC any byType entry holds (see exact).
	maxTC float64
	// treeLen is the node count of all groups' trees laid end to end;
	// group g's tree starts at off(g).
	treeLen int

	// disabled marks an index that cannot reproduce the scan: a NaN or
	// +Inf in the plan, or a count too large for the int32 count trees.
	disabled bool
	// built reports whether free and cnt mirror freeAt (the caller's
	// slice, kept to detect a different one) and the counts.
	built  bool
	freeAt []float64
	free   []float64
	// cnt holds task type i's count trees at cnt[i*treeLen:].
	cnt []int32
	// last is the core the previous ScheduleWith call returned (-1 for
	// none): the one freeAt entry the caller may have changed since.
	last int

	// Scratch for the walk and for leaf updates, so neither allocates.
	stack [64]frame
	path  [64][2]int32
}

// groupRef is one group a task type can be dispatched to, with the
// execution time and TC every core of the group shares for that type.
type groupRef struct {
	g        int32
	exec, tc float64
}

// frame is one pending subtree of a walk: tree node idx covering the
// group's cores [lo, hi).
type frame struct{ idx, lo, hi int32 }

// maxIndexCount bounds the counts the int32 count trees hold.
const maxIndexCount = 1 << 30

// newDispatchIndex lays out the trees of s's plan groups, each of which
// has at least one core (New rejects a plan with an empty one). The
// index is disabled when a TC is NaN or +Inf or an execution time is NaN:
// a ratio is then not increasing in the count, so only the scan is exact.
func newDispatchIndex(s *Scheduler) *dispatchIndex {
	for _, v := range s.rate {
		if math.IsNaN(v) || math.IsInf(v, 1) {
			return &dispatchIndex{disabled: true}
		}
	}
	for _, v := range s.exec {
		if math.IsNaN(v) {
			return &dispatchIndex{disabled: true}
		}
	}
	ng := len(s.rate) / max(s.tasks, 1)
	x := &dispatchIndex{group: s.group, pos: make([]int32, s.ncores), last: -1}
	x.start = make([]int32, ng+1)
	for k, g := range s.group {
		if g >= 0 {
			x.pos[k] = x.start[g+1]
			x.start[g+1]++
		}
	}
	for g := range ng {
		x.start[g+1] += x.start[g]
	}
	x.treeLen = x.off(int32(ng))
	x.members = make([]int32, x.start[ng])
	for k, g := range s.group {
		if g >= 0 {
			x.members[x.start[g]+x.pos[k]] = int32(k)
		}
	}
	x.byType = make([][]groupRef, s.tasks)
	for i := range x.byType {
		for g := range ng {
			e, t := s.exec[g*s.tasks+i], s.rate[g*s.tasks+i]
			if !math.IsInf(e, 1) && t > 0 {
				x.byType[i] = append(x.byType[i], groupRef{g: int32(g), exec: e, tc: t})
				x.maxTC = max(x.maxTC, t)
			}
		}
	}
	return x
}

// off is the first tree node of group g: the groups before it hold
// start[g] cores and 2·start[g] − g tree nodes.
func (x *dispatchIndex) off(g int32) int { return 2*int(x.start[g]) - int(g) }

// exact reports whether distinct counts give distinct ratios at this
// elapsed time. float64(c)/elapsed/tc rounds two counts c1 < c2 ≤ 2^30 to
// the same value only in the subnormal range (their exact quotients are
// 2^-30 apart relatively, far above the 2^-52 rounding step) or when both
// overflow to +Inf (both ratios then exceed 1, so neither is picked).
// Keeping 1/elapsed and 1/(elapsed·TC) above 2^-900 rules the subnormal
// case out.
func (x *dispatchIndex) exact(elapsed float64) bool {
	return elapsed < 0x1p900 && elapsed*x.maxTC < 0x1p900
}

// fill rebuilds every tree from freeAt and counts (task type i's count on
// core k at counts[i*len(freeAt)+k]); it disables the index when a count
// does not fit the count trees.
func (x *dispatchIndex) fill(freeAt []float64, counts []int32) {
	tasks := len(x.byType)
	if x.free == nil {
		x.free = make([]float64, x.treeLen)
		x.cnt = make([]int32, tasks*x.treeLen)
	}
	for g := int32(0); g+1 < int32(len(x.start)); g++ {
		m := x.members[x.start[g]:x.start[g+1]]
		base := x.off(g)
		fillTree(x.free[base:], 0, 0, len(m), func(p int) float64 { return freeAt[m[p]] })
		for i := range tasks {
			row := counts[i*len(freeAt):]
			fillTree(x.cnt[i*x.treeLen+base:], 0, 0, len(m), func(p int) int32 {
				c := row[m[p]]
				if c > maxIndexCount {
					x.disabled = true
				}
				return c
			})
		}
	}
	x.freeAt, x.built, x.last = freeAt, true, -1
}

// fillTree sets node idx, covering leaves [lo, hi), and its subtree from
// leaf and returns the node's minimum.
func fillTree[T float64 | int32](t []T, idx, lo, hi int, leaf func(int) T) T {
	if hi-lo == 1 {
		t[idx] = leaf(lo)
		return t[idx]
	}
	mid := lo + (hi-lo)/2
	t[idx] = min(fillTree(t, idx+1, lo, mid, leaf), fillTree(t, idx+2*(mid-lo), mid, hi, leaf))
	return t[idx]
}

// descend records in x.path the internal nodes from the root of core k's
// group tree down to k's leaf, each with its right child, and returns the
// tree's offset, the leaf node and the path length. ok is false for a core
// in no group.
func (x *dispatchIndex) descend(k int) (base, leaf, depth int, ok bool) {
	g := x.group[k]
	if g < 0 {
		return 0, 0, 0, false
	}
	p := int(x.pos[k])
	lo, hi := 0, int(x.start[g+1]-x.start[g])
	for hi-lo > 1 {
		mid := lo + (hi-lo)/2
		right := leaf + 2*(mid-lo)
		x.path[depth] = [2]int32{int32(leaf), int32(right)}
		depth++
		if p < mid {
			leaf, hi = leaf+1, mid
		} else {
			leaf, lo = right, mid
		}
	}
	return x.off(g), leaf, depth, true
}

// setFree stores core k's free time and restores the minima above it.
func (x *dispatchIndex) setFree(k int, v float64) {
	if base, leaf, depth, ok := x.descend(k); ok {
		setLeaf(x.free[base:], x.path[:depth], leaf, v)
	}
}

// setCount stores core k's count of task type i and restores the minima
// above it.
func (x *dispatchIndex) setCount(i, k int, c int32) {
	if c > maxIndexCount {
		x.disabled = true
		return
	}
	if base, leaf, depth, ok := x.descend(k); ok {
		setLeaf(x.cnt[i*x.treeLen+base:], x.path[:depth], leaf, c)
	}
}

// setLeaf stores v at leaf and recomputes the internal nodes on path
// (root first, each with its right child) from the bottom up.
func setLeaf[T float64 | int32](t []T, path [][2]int32, leaf int, v T) {
	t[leaf] = v
	for d := len(path) - 1; d >= 0; d-- {
		n := path[d]
		t[n[0]] = min(t[n[0]+1], t[n[1]])
	}
}

// dispatch returns PaperPolicy's choice for a task of type typ, or ok =
// false for a drop. elapsed must be positive and exact(elapsed) hold.
func (x *dispatchIndex) dispatch(typ int, now, elapsed, limit float64, counts []int32) (core int, completion float64, ok bool) {
	cnt := x.cnt[typ*x.treeLen : (typ+1)*x.treeLen]
	best, bestRatio, bestDone := -1, math.Inf(1), math.Inf(1)
	for _, r := range x.byType[typ] {
		base := x.off(r.g)
		// O(1) rejections: every core of the group misses the deadline,
		// or even its smallest count is over quota or worse than the best.
		if max(now, x.free[base])+r.exec > limit {
			continue
		}
		if lb := float64(cnt[base]) / elapsed / r.tc; lb > 1 || lb > bestRatio {
			continue
		}
		k, done := x.walk(r.g, cnt[base:], r.exec, now, limit)
		// The scan's exact expression.
		ratio := float64(counts[k]) / elapsed / r.tc
		if ratio > 1 {
			continue
		}
		if best < 0 || ratio < bestRatio ||
			(ratio == bestRatio && (done < bestDone || (done == bestDone && k < best))) {
			best, bestRatio, bestDone = k, ratio, done
		}
	}
	if best < 0 {
		return -1, 0, false
	}
	return best, bestDone, true
}

// walk returns group g's lexicographically smallest (count, completion,
// core) among cores finishing by limit; the group's root must already be
// feasible, so one exists. cnt is the type's count tree for g. Subtrees
// are visited depth first in core order, so a subtree that can only tie
// the best on (count, completion) holds higher cores and is pruned too.
func (x *dispatchIndex) walk(g int32, cnt []int32, exec, now, limit float64) (core int, completion float64) {
	free := x.free[x.off(g):]
	m := x.members[x.start[g]:x.start[g+1]]
	bestCount, bestDone, best := int32(math.MaxInt32), math.Inf(1), -1
	x.stack[0] = frame{0, 0, int32(len(m))}
	for sp := 1; sp > 0; {
		sp--
		f := x.stack[sp]
		done := max(now, free[f.idx]) + exec
		if done > limit {
			continue
		}
		c := cnt[f.idx]
		if c > bestCount || (c == bestCount && done >= bestDone) {
			continue
		}
		if f.hi-f.lo == 1 {
			bestCount, bestDone, best = c, done, int(m[f.lo])
			continue
		}
		mid := f.lo + (f.hi-f.lo)/2
		x.stack[sp] = frame{f.idx + 2*(mid-f.lo), mid, f.hi}
		x.stack[sp+1] = frame{f.idx + 1, f.lo, mid}
		sp += 2
	}
	return best, bestDone
}
