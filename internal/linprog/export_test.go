package linprog

import "testing"

// SetSolvedHook installs f to see every Optimal solve as it returns; nil
// removes it.
func SetSolvedHook(f func(*Problem, *Solution)) { solvedHook = f }

// CheckKKT audits sol as an optimality certificate for p (see checkKKT).
func CheckKKT(t *testing.T, tag string, p *Problem, sol *Solution) { checkKKT(t, tag, p, sol) }

// IsLE reports whether row r of p is a plain ≤ row.
func IsLE(p *Problem, r int) bool { return !p.rows[r].isRange && p.rows[r].op == LE }
