package sched

import (
	"fmt"
	"math"
)

// checkIndex compares every node of s's dispatch index with one rebuilt
// from freeAt and the counts. Call it right after ScheduleWith returns,
// before the caller writes the returned core's freeAt entry: at that point
// the index must mirror freeAt exactly. An index that was never built, was
// dropped or is disabled has nothing to check.
func (s *Scheduler) checkIndex(freeAt []float64) error {
	x := s.ix
	if x == nil || !x.built || x.disabled {
		return nil
	}
	if len(x.freeAt) != len(freeAt) || (len(freeAt) > 0 && &x.freeAt[0] != &freeAt[0]) {
		return fmt.Errorf("sched: index mirrors a different freeAt slice")
	}
	fresh := newDispatchIndex(s)
	fresh.fill(freeAt, s.counts)
	for n := range fresh.free {
		if math.Float64bits(x.free[n]) != math.Float64bits(fresh.free[n]) {
			return fmt.Errorf("sched: free tree node %d holds %v, rebuild %v", n, x.free[n], fresh.free[n])
		}
	}
	for n := range fresh.cnt {
		if x.cnt[n] != fresh.cnt[n] {
			return fmt.Errorf("sched: count tree node %d (type %d) holds %d, rebuild %d",
				n, n/x.treeLen, x.cnt[n], fresh.cnt[n])
		}
	}
	return nil
}
