package linprog

import "testing"

// SetSolvedHook installs f to see every Optimal solve as it returns; nil
// removes it.
func SetSolvedHook(f func(*Problem, *Solution)) { solvedHook = f }

// CheckKKT audits sol as an optimality certificate for p (see checkKKT).
func CheckKKT(t *testing.T, tag string, p *Problem, sol *Solution) { checkKKT(t, tag, p, sol) }

// IsLE reports whether row r of p is a plain ≤ row.
func IsLE(p *Problem, r int) bool { return !p.rows[r].isRange && p.rows[r].op == LE }

// SetKernelSwitches sets the pivot kernel's test switches: split forces
// every elimination to split across two goroutines whatever its size and
// GOMAXPROCS, skipDead leaves dead columns out of the eliminations. The
// returned func restores the defaults.
func SetKernelSwitches(split, skipDead bool) (restore func()) {
	forceSplit, skipDeadColumns = split, skipDead
	return func() { forceSplit, skipDeadColumns = false, true }
}
