package linprog

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// randomLP deterministically generates a random LP from seed: mixed
// ≤/≥/=/range rows, a spread of bound shapes (finite, one-sided, free,
// fixed), small-magnitude coefficients so exact degeneracy and
// near-singular bases stay reachable, and occasional duplicated rows.
// Most rows are anchored to a hidden feasible point so the majority of
// instances are solvable (zero-margin anchors make them degenerate at
// that point); a minority of rows get unrelated right-hand sides to keep
// infeasible and unbounded statuses in the mix. The same seed always
// builds the identical problem, so each solver can get a fresh copy.
func randomLP(seed int64) *Problem {
	rng := rand.New(rand.NewSource(seed))
	sense := Minimize
	if rng.Intn(2) == 0 {
		sense = Maximize
	}
	p := NewProblem(sense)
	nv := 1 + rng.Intn(25)
	nr := 1 + rng.Intn(15)
	feas := make([]float64, nv) // hidden feasible point
	for j := 0; j < nv; j++ {
		cost := float64(rng.Intn(21)-10) / 2
		var lo, hi float64
		switch rng.Intn(12) {
		case 0: // free
			lo, hi = -Inf, Inf
		case 1: // lower-unbounded
			lo, hi = -Inf, float64(rng.Intn(8))
		case 2: // upper-unbounded
			lo, hi = float64(-rng.Intn(4)), Inf
		case 3: // fixed
			lo = float64(rng.Intn(5))
			hi = lo
		default: // boxed
			lo = float64(rng.Intn(4)) - 1
			hi = lo + float64(1+rng.Intn(8))
		}
		p.AddVar("", lo, hi, cost)
		switch {
		case lo == hi:
			feas[j] = lo
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
			feas[j] = float64(rng.Intn(7) - 3)
		case math.IsInf(lo, -1):
			feas[j] = hi - float64(rng.Intn(4))
		case math.IsInf(hi, 1):
			feas[j] = lo + float64(rng.Intn(4))
		default:
			feas[j] = lo + float64(rng.Intn(int(hi-lo)+1))
		}
	}
	addRow := func() {
		terms := make([]Term, 0, 5)
		nt := 1 + rng.Intn(5)
		at := 0.0 // a · feas
		for k := 0; k < nt; k++ {
			c := float64(rng.Intn(11) - 5)
			if c == 0 {
				c = 1
			}
			v := rng.Intn(nv)
			terms = append(terms, Term{v, c})
			at += c * feas[v]
		}
		anchored := rng.Intn(5) > 0 // 80%: row holds at the hidden point
		margin := float64(rng.Intn(5))
		rhs := float64(rng.Intn(31) - 10)
		switch rng.Intn(7) {
		case 0:
			if anchored {
				rhs = at
			}
			p.AddRow(EQ, rhs, terms...)
		case 1:
			if anchored {
				p.AddRangeRow(at-margin, at+float64(rng.Intn(5)), terms...)
			} else {
				p.AddRangeRow(rhs, rhs+float64(1+rng.Intn(10)), terms...)
			}
		case 2, 3:
			if anchored {
				rhs = at - margin
			}
			p.AddRow(GE, rhs, terms...)
		default:
			if anchored {
				rhs = at + margin
			}
			p.AddRow(LE, rhs, terms...)
		}
	}
	for r := 0; r < nr; r++ {
		addRow()
		if rng.Intn(8) == 0 && p.NumRows() > 0 {
			// Duplicate the previous row verbatim: guaranteed degeneracy and
			// a redundant row for phase 1 to carry.
			prev := p.NumRows() - 1
			terms := p.RowTerms(prev)
			p.AddRow(p.rows[prev].op, p.rows[prev].rhs, terms...)
		}
	}
	return p
}

// differentialOne checks seed's LP against the textbook oracle (status,
// objective, KKT certificate). It reports whether the instance was
// Optimal, for coverage accounting.
func differentialOne(t *testing.T, seed int64) bool {
	t.Helper()
	return checkAgainstOracle(t, fmt.Sprintf("seed %d", seed), func() *Problem { return randomLP(seed) })
}

// differentialSweep runs seeds [0, n) and requires a healthy status mix so
// a generator regression (e.g. everything infeasible) cannot silently
// hollow out the comparison.
func differentialSweep(t *testing.T, n int) {
	optimal := 0
	for seed := int64(0); seed < int64(n); seed++ {
		if differentialOne(t, seed) {
			optimal++
		}
	}
	if optimal < n/4 {
		t.Fatalf("only %d/%d instances optimal — generator no longer exercises the solved path", optimal, n)
	}
}

// TestDifferentialShort is the always-on subset of the oracle differential
// sweep; the full 600-instance sweep runs under -tags slow.
func TestDifferentialShort(t *testing.T) {
	differentialSweep(t, 80)
}

// TestDifferentialWarmRHSPerturbation drives warm re-solves through random
// problems: solve, randomly patch a few right-hand sides, re-solve on the
// same workspace, and require bit-identical agreement with a cold solve of
// the patched instance on a fresh workspace.
func TestDifferentialWarmRHSPerturbation(t *testing.T) {
	trials := 0
	for seed := int64(0); seed < 200 && trials < 40; seed++ {
		warm := randomLP(seed)
		ws := &Workspace{}
		if s, err := warm.Solve(context.Background(), ws); err != nil || s.Status != Optimal {
			continue
		}
		trials++
		rng := rand.New(rand.NewSource(seed ^ 0x5eed))
		for round := 0; round < 3; round++ {
			r := rng.Intn(warm.NumRows())
			delta := float64(rng.Intn(7) - 3)
			warm.SetRHS(r, warm.rows[r].rhs+delta)
			wsol, werr := warm.Solve(context.Background(), ws)

			cold := randomLP(seed)
			for i := 0; i < cold.NumRows(); i++ {
				cold.SetRHS(i, warm.rows[i].rhs)
			}
			csol, cerr := cold.Solve(context.Background(), nil)
			if (werr == nil) != (cerr == nil) || wsol.Status != csol.Status {
				t.Fatalf("seed %d round %d: warm status %v (err %v), cold %v (err %v)",
					seed, round, wsol.Status, werr, csol.Status, cerr)
			}
			if werr != nil {
				continue
			}
			solutionBitsEqual(t, "warm-differential", wsol, csol)
		}
	}
	if trials < 10 {
		t.Fatalf("only %d optimal instances found — generator drifted", trials)
	}
}
