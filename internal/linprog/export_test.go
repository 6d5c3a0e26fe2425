package linprog

import (
	"fmt"
	"testing"
)

// SetSolvedHook installs f to see every Optimal solve as it returns; nil
// removes it.
func SetSolvedHook(f func(*Problem, *Solution)) { solvedHook = f }

// CheckKKT audits sol as an optimality certificate for p (see checkKKT).
func CheckKKT(t *testing.T, tag string, p *Problem, sol *Solution) { checkKKT(t, tag, p, sol) }

// IsLE reports whether row r of p is a plain ≤ row.
func IsLE(p *Problem, r int) bool { return !p.rows[r].isRange && p.rows[r].op == LE }

// KernelSwitches is one setting of the pivot kernel's test switches: Split
// forces every flush to split across two goroutines whatever its size and
// GOMAXPROCS, SkipDead leaves dead columns out of the eliminations, and a
// positive Batch makes every tableau queue that many pivots per flush
// whatever its size (0 keeps the size rule).
type KernelSwitches struct {
	Split, SkipDead bool
	Batch           int
}

// Set installs k; the returned func restores the defaults.
func (k KernelSwitches) Set() (restore func()) {
	if k.Batch > batchSize {
		panic(fmt.Sprintf("linprog: batch %d exceeds the queue's %d slots", k.Batch, batchSize))
	}
	forceSplit, skipDeadColumns, forceBatch = k.Split, k.SkipDead, k.Batch
	return func() { forceSplit, skipDeadColumns, forceBatch = false, true, 0 }
}

func (k KernelSwitches) String() string {
	return fmt.Sprintf("split %v, skip dead %v, batch %d", k.Split, k.SkipDead, k.Batch)
}

// KernelSettings is every combination of the kernel's switches: flushes
// split across two goroutines at any size or not, dead columns skipped or
// eliminated, and eliminations applied every pivot or queued 2, 3 or 8 at
// a time (sizes that make batches straddle the 256-pivot refresh, the
// phase boundary, Bland restarts, bound flips and the rescaled retry). The
// first is the eager reference.
func KernelSettings() []KernelSwitches {
	var out []KernelSwitches
	for _, batch := range []int{1, 2, 3, 8} {
		for _, split := range []bool{false, true} {
			for _, skipDead := range []bool{false, true} {
				out = append(out, KernelSwitches{split, skipDead, batch})
			}
		}
	}
	return out
}
